"""Calculator for the higher-angulated categories of the truncated linear
Nakayama family: minimal angles, AR angles, wide subcategories, covers, and
brute-force oracles for all of them."""

from .core import (
    BadDistance,
    ConstraintViolation,
    DomainError,
    FamilyParams,
    InternalError,
    Morphism,
    NotMember,
    NotWide,
    ShapeMismatch,
    SumObject,
    ZERO_OBJ,
    ZeroHom,
    basis_mor,
    compose,
    hom_dim,
    identity_mor,
    indec,
    index_of,
    is_iso,
    is_radical,
    is_split_epi,
    is_split_mono,
    join_pos,
    pos_label,
    residue_class,
    shift_mor,
    shift_obj,
    split_pos,
    validate_params,
    zero_mor,
)
from .angles import (
    Angle,
    ExactnessReport,
    FLevelChain,
    check_d_cokernel,
    check_d_exact,
    check_d_kernel,
    check_hom_exactness,
    d_cokernel,
    d_exact_seq,
    d_kernel,
    direct_sum,
    extend,
    min_angle,
    rotate_left,
    rotate_right,
    shift_angle,
    trivial_angle,
)
from .wide import (
    SubcatSpec,
    bar,
    closure_rules,
    empty_spec,
    enumerate_wide,
    full_spec,
    is_l_periodic,
    is_semisimple_wide,
    is_wide,
    is_wide_oracle,
    models,
    periodic_rules,
    semisimple_rules,
    unbar,
    wide_oracle_witness,
)
from .artheory import (
    CoverResult,
    TheoremBReport,
    ar_angle,
    ar_angle_in,
    cover,
    is_ar_angle,
    is_cover,
    is_left_almost_split,
    is_precover,
    is_right_almost_split,
    is_right_minimal,
    theorem_b_check,
)


def shift(value, r: int, *, params=None):
    """Translate an object, morphism or angle by r periods."""
    if isinstance(value, Angle):
        return shift_angle(value, r)
    if isinstance(value, Morphism):
        return shift_mor(value, r)
    if isinstance(value, SumObject):
        if params is None:
            raise TypeError("shifting a bare object needs params=")
        return shift_obj(params, value, r)
    raise TypeError(f"cannot shift {type(value).__name__}")
