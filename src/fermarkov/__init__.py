# src/fermarkov/__init__.py

"""Numerical toolkit for finite fermionic (CAR) algebras: entropy-equality
verdicts, Markov-triplet analysis, commuting factorizations and even-state
block decompositions."""

__version__ = "0.1.0"

from .car import (
    CarAlgebra,
    MatrixUnitFamily,
    RegionPartition,
    build_algebra,
    cond_expect,
    even_odd_split,
    matrix_units,
    parity_automorphism,
    parity_unitary,
    region_orthobasis,
)
from .entropy import (
    SsaReport,
    StateDensity,
    cocycle,
    embedded_restriction,
    rel_entropy,
    restrict_density,
    ssa_gap,
    vn_entropy,
)
from .markov import (
    Analysis,
    Block,
    BlockDecomposition,
    CentralStructure,
    Factorization,
    StructureLemmaReport,
    TripletAnalysis,
    analyze_triplet,
    central_structure,
    decompose_even,
    factorize,
    validate_structure_lemmas,
)
from .report import AnalysisDocument, Check, emit, parse_document, state_digest
from .spectral import (
    SpectralDecomposition,
    eig_hermitian,
    mat_exp,
    mat_func,
    mat_imaginary_pow,
    mat_log,
    mat_pow,
)
from .states import (
    BlockDesign,
    GeneratorSpec,
    generate,
    make_block_markov,
    make_product_markov,
    perturb,
    random_even_state,
    random_state,
)
from .subalgebra import (
    SubalgebraBasis,
    center,
    commutant,
    invariant_subalgebra,
    membership,
    minimal_central_projections,
    region_subalgebra,
    span_equality_residual,
    subalgebra_from_matrices,
)
from .sufficiency import (
    QuantumChannel,
    SufficiencyReport,
    factor_through,
    is_sufficient,
    petz_map,
    projection_channel,
)
