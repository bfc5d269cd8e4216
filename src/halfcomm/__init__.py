"""halfcomm: exact computation in half-commutative orthogonal Hopf algebras.

Submodules:

- ``words``: generator words modulo half-commutation, canonical forms, the
  brute-force rewriting oracle, and the Hopf structure maps.
- ``crossed``: the crossed product of coordinate polynomials by the
  conjugation flip, its Hopf structure, and the embedding of word elements.
- ``groups``: concrete compact matrix group models with Haar samplers,
  membership tests, predicates, and the two-dimensional matrix model.
- ``haar``: exact Haar integration over the unitary group (Weingarten
  calculus), the induced state and equality oracle, and Monte Carlo backup.
- ``fusion``: tensor-decomposition data (Littlewood-Richardson, SU(2), tori)
  and the parity-graded fusion rules.
- ``expressions`` / ``cli``: the shared expression grammar and command line.
"""

from .scalars import GaussianRational
from .words import (
    Letter,
    Presentation,
    WordElement,
    ah_star,
    ah_zero_test,
    antipode_element,
    ao_star,
    au_star_star,
    coproduct_element,
    counit_element,
    hc_normal_form,
    rewrite_closure_oracle,
    star_element,
)
from .crossed import (
    CrossedElement,
    FunElement,
    FunMonomial,
    coinvariant_test,
    crossed_antipode,
    crossed_coproduct,
    crossed_counit,
    crossed_mul,
    crossed_star,
    embed_pi,
    pun_generator,
)
from .groups import GroupModel, contains, matrix_model_eval, parse_model, predicate, sample_batch
from .haar import (
    MCEstimate,
    WeingartenTable,
    haar_integral,
    haar_state,
    mc_integral,
    norm_equal,
    norm_squared,
    weingarten_table,
)
from .fusion import (
    SU2Fusion,
    TorusFusion,
    UnFusion,
    astar_dual,
    astar_tensor,
    crossed_tensor,
    lr_tensor,
    moment_crosscheck,
    un_dim,
)
from .expressions import parse_context, parse_expression
from .verify import VerifyReport, run_verify

__version__ = "0.1.0"
