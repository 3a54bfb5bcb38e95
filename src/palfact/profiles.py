"""Combined per-prefix profile: minimum and greedy counts plus first hits."""

from __future__ import annotations

from dataclasses import dataclass, field

from .eertree import PalindromeIndex
from .greedy import running_max, right_greedy_counts
from .pallen import _first_hits
from .streams import materialize, spec_of


@dataclass
class PrefixProfile:
    """Per-prefix record for prefixes 1..horizon of one word or stream.

    ``first_attainment[k]`` is the least prefix length whose minimum
    palindromic factor count equals k (None when not attained).
    """

    word_spec: str
    pal: list[int]
    lgpal: list[int]
    rgpal: list[int]
    max_pal: list[int]
    max_lgpal: list[int]
    max_rgpal: list[int]
    first_attainment: dict[int, int | None] = field(default_factory=dict)

    @property
    def horizon(self) -> int:
        return len(self.pal)

    def to_csv(self) -> str:
        lines = ["n,pal,lgpal,rgpal,max_pal,max_lgpal,max_rgpal"]
        for i in range(self.horizon):
            lines.append(
                f"{i + 1},{self.pal[i]},{self.lgpal[i]},{self.rgpal[i]},"
                f"{self.max_pal[i]},{self.max_lgpal[i]},{self.max_rgpal[i]}"
            )
        attained = [
            str(self.first_attainment[k])
            for k in sorted(self.first_attainment)
            if self.first_attainment[k] is not None
        ]
        lines.append("m," + ",".join(attained))
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "word": self.word_spec,
            "horizon": self.horizon,
            "pal": self.pal,
            "lgpal": self.lgpal,
            "rgpal": self.rgpal,
            "max_pal": self.max_pal[-1] if self.pal else 0,
            "max_lgpal": self.max_lgpal[-1] if self.lgpal else 0,
            "max_rgpal": self.max_rgpal[-1] if self.rgpal else 0,
            "first_attainment": {
                str(k): v for k, v in sorted(self.first_attainment.items())
            },
        }


def build_profile(stream, horizon: int) -> PrefixProfile:
    """Minimum and greedy counts for every prefix up to the horizon.

    All three arrays come from one forward index: ``min_factors`` from its
    series-link recurrence, the right-greedy counts from ``lps`` and the
    left-greedy counts from its series-link walk.
    """
    idx = PalindromeIndex(materialize(stream, horizon), track_min=True)
    pal = idx.min_factors[1:]
    rg = right_greedy_counts(idx.lps)
    lg = idx.left_greedy_counts()
    del idx
    max_pal = running_max(pal)
    return PrefixProfile(
        word_spec=spec_of(stream),
        pal=pal,
        lgpal=lg,
        rgpal=rg,
        max_pal=max_pal,
        max_lgpal=running_max(lg),
        max_rgpal=running_max(rg),
        first_attainment=_first_hits(pal, max_pal[-1] if max_pal else 0),
    )
