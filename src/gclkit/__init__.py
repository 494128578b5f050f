"""gclkit: affinity-matrix contrastive losses with a synthetic verification harness."""

from .affinity import (
    AffinityMatrix,
    semi_affinity,
    type1_affinity,
    type2_affinity,
    type3_affinity,
    type4_affinity,
    validate,
)
from .backend import BACKEND_NAME
from .batch import (
    RepresentationBatch,
    build_augmented_batch,
    build_prototype_batch,
    merge_semi_batch,
    two_step_sample,
)
from .kernels import KernelParams, exponent_matrix
from .loss import (
    CompleteFormSpec,
    GclOptions,
    LossReport,
    complete_form,
    finite_diff_check,
    gcl,
    gcl_grad,
    gcl_semi,
    oracle_episode,
    oracle_ntxent,
)

__version__ = "0.1.0"
