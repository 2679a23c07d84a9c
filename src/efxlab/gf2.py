"""GF(2) linear algebra on integer bit rows: rank, nullspace, period recovery.

Vectors are plain ints; bit i of a vector is coordinate i. This is all the
linear algebra the Simon post-processing needs, so there is no general matrix
type beyond a bag of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class PeriodResult:
    """Outcome of a period-recovery attempt.

    status is one of "period", "injective", "undetermined", "exhausted";
    period is set only for the "period" status.
    """

    status: str
    period: Optional[int] = None

    @property
    def is_period(self) -> bool:
        return self.status == "period"


INJECTIVE = PeriodResult("injective")
UNDETERMINED = PeriodResult("undetermined")
EXHAUSTED = PeriodResult("exhausted")


def dot(a: int, b: int) -> int:
    """Inner product over GF(2): parity of the AND of the two bit vectors."""
    return (int(a) & int(b)).bit_count() & 1


def _reduced_rows(rows: Sequence[int]) -> List[int]:
    """Row-reduce to a canonical echelon basis (highest pivot bit first)."""
    basis: List[int] = []
    for row in rows:
        v = int(row)
        for b in basis:
            if v ^ b < v:
                v ^= b
        if v:
            # eliminate the new pivot from existing rows to keep rows reduced
            basis = [b ^ v if (b ^ v) < b else b for b in basis]
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def rank(rows: Sequence[int]) -> int:
    """Dimension of the span of the rows over GF(2)."""
    return len(_reduced_rows(rows))


def nullspace_basis(rows: Sequence[int], n: int) -> List[int]:
    """Basis of the right nullspace {v : row . v = 0 for every row}."""
    basis = _reduced_rows(rows)
    pivot_of = {}
    for row in basis:
        pivot_of[row.bit_length() - 1] = row
    free_cols = [c for c in range(n) if c not in pivot_of]
    out = []
    for f in free_cols:
        v = 1 << f
        for p, row in pivot_of.items():
            if (row >> f) & 1:
                v |= 1 << p
        out.append(v)
    return out


def recover_period(samples: Sequence[int], n: int) -> PeriodResult:
    """Classify Simon samples: full rank means injective, rank n-1 pins the period.

    Anything below rank n-1 is reported as undetermined; callers decide how to
    treat that (the attack loop counts it as a suspicious pass).
    """
    r = rank(samples)
    if r == n:
        return INJECTIVE
    if r == n - 1:
        (s,) = nullspace_basis(samples, n)
        return PeriodResult("period", s)
    return UNDETERMINED


def nullspace_members(samples: Sequence[int], n: int) -> List[int]:
    """Every vector orthogonal to all samples, including 0."""
    basis = nullspace_basis(samples, n)
    members = [0]
    for b in basis:
        members += [v ^ b for v in members]
    return members
