"""Braid group actions on free groups from cyclic branched covers of a disk."""

from .errors import (
    BudgetExceededError,
    EndpointMismatchError,
    ParameterMismatchError,
)
from .words import (
    FreeAutomorphism,
    Word,
    abelianize,
    apply,
    compose,
    conjugate,
    equal,
    format_word,
    identity_automorphism,
    invert,
    multiply,
    parse_word,
    rank,
)
from .groupoid import (
    Edge,
    EdgePath,
    GroupoidFunctor,
    Vertex,
    apply_functor,
    base_half_twist,
    compose_functors,
    dehn_twist,
    format_path,
    identity_functor,
    lifted_half_twist,
    lifted_half_twist_inverse,
    parse_path,
    path,
    path_compose,
    path_invert,
    project,
    verify_lift,
)
from .pi1 import functor_to_automorphism, loop_to_word, word_to_loop
from .braid import (
    BraidWord,
    CheckResult,
    Report,
    braid_matrix,
    check_braid_relations,
    check_cross_validation,
    check_dehn_factorization,
    check_lift_projection,
    conjugate_twist_action,
    dehn_twist_product,
    evaluate,
    generator_action,
    half_twist_action,
    parse_braid,
    run_suite,
)
from .surface import SurfaceData, surface, table

__all__ = [name for name in dir() if not name.startswith("_")]
