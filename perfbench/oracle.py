"""Independent reference computations for the benchmark's checks.

Everything here is plain Python over (l, m, n) triples and shares no code
with ``cubenodal``: the spectrum, Courant index ranges, Faber-Krahn ratios
and antipodal-parity indices are rebuilt from brute-force triple loops, so a
fault in the package cannot hide behind the same fault in its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FK_RATIO = 4.0 * math.pi / 3.0


@dataclass(frozen=True)
class OracleGroup:
    value: int
    modes: tuple[tuple[int, int, int], ...]
    k_min: int
    j: int

    @property
    def multiplicity(self) -> int:
        return len(self.modes)

    @property
    def k_max(self) -> int:
        return self.k_min + len(self.modes) - 1

    @property
    def ratio(self) -> float:
        return self.value**1.5 / self.k_min

    @property
    def candidate(self) -> bool:
        return self.ratio >= FK_RATIO

    @property
    def excluded(self) -> bool:
        return 2 * self.j < self.k_min


def cube_groups(lambda_max: int) -> list[OracleGroup]:
    """Eigenvalue groups of the cube up to ``lambda_max``, by triple loops.

    ``j`` counts, for each value, the modes of strictly smaller value whose
    l+m+n has the same parity as this value's modes, plus one.
    """
    top = math.isqrt(lambda_max)
    by_value: dict[int, list[tuple[int, int, int]]] = {}
    for l in range(1, top + 1):
        for m in range(1, top + 1):
            for n in range(1, top + 1):
                value = l * l + m * m + n * n
                if value <= lambda_max:
                    by_value.setdefault(value, []).append((l, m, n))
    groups = []
    k = 1
    below = [0, 0]
    for value in sorted(by_value):
        modes = tuple(sorted(by_value[value]))
        parities = {sum(mode) % 2 for mode in modes}
        if len(parities) != 1:
            raise AssertionError(f"cube eigenvalue {value} mixes parities")
        parity = parities.pop()
        groups.append(OracleGroup(value, modes, k, below[parity] + 1))
        k += len(modes)
        for mode in modes:
            below[sum(mode) % 2] += 1
    return groups


def candidates(groups: list[OracleGroup]) -> list[int]:
    return [g.k_min for g in groups if g.candidate]


def survivors(groups: list[OracleGroup]) -> list[int]:
    return [g.k_min for g in groups if g.candidate and not g.excluded]
