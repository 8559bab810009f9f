"""The rank-8 lattice model behind the Kummer-fourfold torsion certificate.

The cyclic permutation of three torus factors, transported to A x A along
(x, y) |-> (x, y, -x - y), acts on the degree-1 cohomology lattice Z^8 of
A x A.  On each of the four rank-2 sublattices spanned by a pair of dual
degree-1 classes it acts by the standard order-3 matrix

    [[-1, 1],
     [-1, 0]]

(the convention with s(x, y) = (y, -x - y); the other generator gives a
conjugate action, and every invariant computed here is checked to agree
for both).  Degree-k cohomology is the k-th exterior power of this
lattice.  From the model we extract:

* the block-count table for k = 1..4, computed independently through the
  integral compound matrix and through the closed-form exterior-power
  calculus, with a hard mismatch error if the two routes ever disagree;
* the vanishing certificate: the group cohomology H^p(Z/3, -) of the
  exterior-power lattices, for every p >= 1 with p + q in {3, 5}, all of
  which must be zero;
* the ranks of the fixed sublattices, which are the edge terms consumed
  by the quotient-torsion argument.
"""

from __future__ import annotations

import hashlib
import json
from functools import cached_property

from .cohomology import LatticeAction, cohomology_snf, fixed_points, jordan_type_mod3
from .jordan import JordanType, wedge
from .linalg import FinAbGroup, IntMatrix, InvariantError, Value, exterior_power

__all__ = [
    "CertificateFailure",
    "KummerContext",
    "KummerModel",
    "MismatchError",
    "VANISHING_PAIRS",
    "VanishingEntry",
    "build_context",
    "build_model",
    "build_sigma_h1",
    "ell_table_routes",
    "fixed_rank_table",
    "vanishing_certificate",
]


class MismatchError(InvariantError):
    """The two independent computation routes disagree (a bug, not bad input)."""


class CertificateFailure(RuntimeError):
    """A certificate entry that must vanish is non-zero."""


SIGMA_BLOCK = ((-1, 1), (-1, 0))

# Group cohomology degrees p >= 1 with p + q in {3, 5}: everything the
# quotient argument needs in total degrees 3 and 5.
VANISHING_PAIRS = ((1, 2), (2, 1), (3, 0), (1, 4), (2, 3), (3, 2), (4, 1), (5, 0))

_EXPECTED_H1_TYPE = JordanType(0, 4, 0)

# Degrees of the exterior-power tower: the block-count table uses 1..4,
# the vanishing certificate 0..4 and the fixed-rank table 0..5.
TOWER_DEGREES = (0, 1, 2, 3, 4, 5)
_ELL_DEGREES = (1, 2, 3, 4)


def build_sigma_h1() -> LatticeAction:
    """The order-3 action on the degree-1 lattice Z^8 of A x A."""
    block = IntMatrix(SIGMA_BLOCK)
    return LatticeAction(IntMatrix.block_diag([block] * 4))


def coefficient_action(action: LatticeAction, q: int) -> LatticeAction:
    """The induced action on the degree-q lattice (the q-th exterior power)."""
    return LatticeAction(exterior_power(action.matrix, q))


class VanishingEntry(Value):
    __slots__ = _fields = ("p", "q", "group")

    def __init__(self, p: int, q: int, group: FinAbGroup):
        self._init(p, q, group)

    def to_json_dict(self) -> dict:
        return {"p": self.p, "q": self.q, "group": self.group.to_json_dict()}


class KummerModel:
    """One order-3 action and its exterior powers, each built exactly once.

    The powers Lambda^q for q = 0..5 are built with the model; every
    invariant read off them is computed on first use and then kept, so the
    commands and the context that share a model never recompute a lattice.
    """

    def __init__(self, action: LatticeAction):
        self.action = action
        self.powers = {q: coefficient_action(action, q) for q in TOWER_DEGREES}

    @cached_property
    def base_type(self) -> JordanType:
        """The mod-3 Jordan type of the action itself."""
        return jordan_type_mod3(self.action)

    @cached_property
    def routes(self) -> tuple[dict[int, JordanType], dict[int, JordanType]]:
        """Block counts for k = 1..4 by the matrix route and by the closed form."""
        matrix_route = {k: jordan_type_mod3(self.powers[k]) for k in _ELL_DEGREES}
        closed_route = {k: wedge(self.base_type, k) for k in _ELL_DEGREES}
        return matrix_route, closed_route

    @property
    def ell(self) -> dict[int, JordanType]:
        """The certified block-count table; both routes must agree."""
        matrix_route, closed_route = self.routes
        if matrix_route != closed_route:
            raise MismatchError(
                f"exterior-power route {matrix_route} != closed-form route {closed_route}"
            )
        return matrix_route

    @cached_property
    def vanishing_entries(self) -> tuple[VanishingEntry, ...]:
        """Every certificate group, zero or not."""
        return tuple(
            VanishingEntry(p, q, cohomology_snf(self.powers[q], p)) for p, q in VANISHING_PAIRS
        )

    @property
    def vanishing(self) -> tuple[VanishingEntry, ...]:
        """The certificate groups; raise on the first non-zero entry."""
        for entry in self.vanishing_entries:
            if not entry.group.is_zero:
                raise CertificateFailure(
                    f"H^{entry.p}(A3, H^{entry.q}) = {entry.group}, expected 0"
                )
        return self.vanishing_entries

    @cached_property
    def fixed_ranks(self) -> dict[int, int]:
        """Rank of the fixed sublattice of each exterior power."""
        return {q: fixed_points(power).rank for q, power in self.powers.items()}

    @property
    def is_expected_model(self) -> bool:
        # The sign convention must give four size-2 blocks mod 3 and no
        # fixed vectors; anything else means the model is wrong.
        return self.base_type == _EXPECTED_H1_TYPE and self.fixed_ranks[1] == 0

    def context(self) -> "KummerContext":
        """The certified context; the model must be the expected one."""
        if not self.is_expected_model:
            raise InvariantError(
                f"the degree-1 model has mod-3 type {self.base_type} and fixed rank "
                f"{self.fixed_ranks[1]}, expected {_EXPECTED_H1_TYPE} and 0"
            )
        return KummerContext(
            sigma_h1=self.action,
            ell=self.ell,
            vanishing=self.vanishing,
            fixed_ranks=self.fixed_ranks,
        )


def build_model(action: LatticeAction | None = None) -> KummerModel:
    """The model of ``action`` (the rank-8 action by default), Lambda^q for q = 0..5."""
    return KummerModel(build_sigma_h1() if action is None else action)


def ell_table_routes(
    action: LatticeAction | None = None,
) -> tuple[dict[int, JordanType], dict[int, JordanType]]:
    """Block counts for k = 1..4 by the matrix route and by the closed form."""
    return build_model(action).routes


def vanishing_certificate(action: LatticeAction | None = None) -> tuple[VanishingEntry, ...]:
    """Compute all certificate groups; raise on the first non-zero entry."""
    return build_model(action).vanishing


def fixed_rank_table(action: LatticeAction | None = None) -> dict[int, int]:
    """Rank of the fixed sublattice of the degree-q exterior power, q = 0..5."""
    return build_model(action).fixed_ranks


class KummerContext(Value):
    """Everything the certificate checker consumes, as one immutable value."""

    __slots__ = _fields = ("sigma_h1", "ell", "vanishing", "fixed_ranks")

    def __init__(self, sigma_h1: LatticeAction, ell: dict[int, JordanType],
                 vanishing: tuple[VanishingEntry, ...], fixed_ranks: dict[int, int]):
        self._init(sigma_h1, ell, vanishing, fixed_ranks)

    def to_json_dict(self) -> dict:
        return {
            "sigma_h1": self.sigma_h1.matrix.to_lists(),
            "ell_table": {str(k): t.to_json_dict() for k, t in sorted(self.ell.items())},
            "vanishing": [e.to_json_dict() for e in self.vanishing],
            "fixed_ranks": {str(q): r for q, r in sorted(self.fixed_ranks.items())},
        }

    def content_tag(self) -> str:
        """Short digest of the computed content, for tagging emitted facts."""
        blob = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_context() -> KummerContext:
    return build_model().context()
