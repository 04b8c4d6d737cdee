"""Exact computation with differential algebras over GF(2^k).

The package implements, over the binary fields GF(2^k) with k <= 16:

- finite-dimensional associative algebras carrying a square-zero
  derivation d, with the twisted commutation law a b = b a + d(b) d(a);
- their ideals, characters, idempotent decompositions and homology;
- bounded-degree presentations in differential polynomial rings with a
  noncommutative block of generators;
- the classification machinery for the 7-dimensional noncommutative
  family, normalizing any member onto a single canonical model;
- Lie algebras in the same category, universal envelopes, straightening
  to standard monomials and a basis theorem verifier;
- a small CLI (``dalg``) over text files and a presentation DSL.
"""

from .errors import (
    AmbientMismatch,
    BadDifferential,
    DalgError,
    DegreeLimit,
    DegreeOverflow,
    DimensionMismatch,
    DslSyntaxError,
    Inconsistent,
    IndexOutOfRange,
    NeedsExtension,
    NonSplit,
    NotApplicable,
    NotClosedAtBound,
    NotCommutative,
    NotDIdeal,
    NotGenerating,
    RelationsNotDClosed,
    ShapeMismatch,
    TheoremViolation,
    WrongDefect,
)
from .gf2k import Fe, FieldCtx, field, field_extend, fe_sqrt, quad_roots
from .linalg import (
    CoordSolver,
    Matrix,
    Subspace,
    extend_basis,
    min_poly,
    solve,
    subspace_intersect,
)
from .unipoly import UniPoly, poly_gcd, poly_roots, squarefree_part
from .algebra import (
    AssocAlgebra2,
    AxiomFailure,
    AxiomReport,
    DAlgebra,
    Morphism,
    change_basis,
    compose,
    defect,
    direct_product,
    direct_product_many,
    embed_algebra,
    homology,
    invert,
    is_d_ideal,
    lemma_suite,
    quotient,
    small_dim_commutativity_check,
    subalgebra,
    verify_morphism,
)
from .ideals import (
    DIdeal,
    close,
    ideal_intersect,
    ideal_power,
    ideal_product,
    ideal_sum,
    is_coprime,
    nilpotency_index,
)
from .polyd import (
    PAlgebra,
    PElem,
    PMono,
    Presentation,
    enumerate_monomials,
    mono_degree,
    mono_label,
    mono_sort_key,
    monomial_count,
    present,
    quotient_to_dalgebra,
)
from .errors import AxiomsFailed, FormatError
from .dim7 import CanonicalForm7, Normal7Result, classify7, make_D, normalize7
from .structure import (
    Character,
    Decomposition,
    Defect1Basis,
    characters,
    decompose,
    defect_one_basis,
    is_local,
    jacobson_radical,
    maximal_ideals,
    nilradical,
    primitive_idempotents,
)
from .lie import (
    LieAlgebra2,
    abelian_lie,
    commutator_lie,
    gl_object,
    jacobi_seven_term_check,
    verify_lie,
)
from .pbw import (
    ConfluenceReport,
    StraightenCtx,
    TElem,
    confluence_test,
    ordered_for_straightening,
    prove_pbw,
    sandwich_count,
    standard_count,
    standard_words,
    verify_pbw,
    word_defect,
)
from .formats import dumps, loads
from .dsl import parse_presentation, to_source

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
