"""Exact verification of the homotopy BV structure on tensor word spaces.

Given a finite-dimensional differential graded algebra (or A-infinity
algebra) described by structure constants, this package builds the shuffle
product and the coderivation lifts of the structure maps on the space of
words, and verifies every axiom of the induced (homotopy) BV structure by
exhaustive exact-rational evaluation up to word-length bounds.
"""

from .graded import (
    AElement,
    BasisLetter,
    GradedSpace,
    InhomogeneousError,
    InvalidInputError,
    Scalar,
    koszul_sign,
    parse_scalar,
    render_scalar,
    shifted_degree,
)
from .words import (
    TElement,
    Word,
    render_telement,
    shuffle,
    shuffle_elements,
    word_degree,
)
from .operators import (
    InducedMap,
    MultilinearMap,
    Operator,
    induced_morphism,
    lift_coderivation,
)
from .bv import (
    AxiomReport,
    Bounds,
    bracket,
    check_bvinf,
    check_dbv,
    check_functoriality,
    order_defect,
)
from .algebra_io import (
    AinfAlgebra,
    AlgebraSpec,
    DGAlgebra,
    DGMorphism,
    MorphismSpec,
    ValidationFailure,
    builtin,
    builtin_names,
    load_document,
    parse_document,
    render_document,
    validate_ainf,
    validate_dga,
    validate_morphism,
)

__version__ = "0.1.0"
