"""whitforge: exact-arithmetic certificates for nilpotent orbits, Whittaker
pairs and orbit-raising deformations in gl_n / sl_n."""

from .errors import (DimensionMismatch, InternalCheckFailure,
                     InvalidPartitionForType, MathError, NoSolutionError,
                     NotCommuting, NotDominated, NotNilpotent,
                     NotRationalSplit, ParseError, PreconditionViolation,
                     ShapeViolation, SizeMismatch, UnsupportedQuery,
                     VerificationError, WhitforgeError, WrongPartition)
from .exactq import (NO_SOLUTION, QMatrix, Subspace, rat_parse, rat_str,
                     rational_eigenvalues, rref_solve, skew_tools)
from .partitions import (GroupType, OrbitClassification, classify, closure_leq,
                         dominance_leq, distinguished_gl, enumerate_orbits,
                         is_type_valid, lemma_part_index, oht_admissible,
                         partitions_of, transpose)
from .orbits import (SlOrbitClass, StandardRep, J_eta, J_eta_a, h_eta,
                     is_dth_power, is_neutral_pair, jordan_conjugator,
                     jordan_partition, neutral_for, power_class, sl2_complete,
                     sl_class, standard_rep)
from .whitpair import (ChainCertificate, DeformationSnapshot, Grading,
                       WhittakerPair, WhittakerTriple, bigrading, chain,
                       critical_numbers, find_Z, grading, model_data,
                       quasi_criticals, quasi_model_data, snapshot,
                       weight_components)
from .deform import (ComparCertificate, ConditionNotMet,
                     DeformationCertificate, compar_certificate, deform_gl,
                     deform_sl, two_blocks)

__version__ = "0.1.0"
