"""Combined per-prefix profile: minimum and greedy counts plus first hits."""

from __future__ import annotations

from .eertree import PalindromeIndex
from .greedy import running_max, right_greedy_counts
from .pallen import _first_hits
from .streams import materialize, spec_of


class PrefixProfile:
    """Per-prefix record for prefixes 1..horizon of one word or stream.

    ``first_attainment[k]`` is the least prefix length whose minimum
    palindromic factor count equals k (None when not attained).  The
    running maxima ``max_*`` are computed when read; only CSV prints them.
    """

    __slots__ = ("word_spec", "pal", "lgpal", "rgpal", "first_attainment")

    def __init__(self, word_spec: str, pal: list[int], lgpal: list[int],
                 rgpal: list[int], first_attainment: dict[int, int | None] | None = None):
        self.word_spec = word_spec
        self.pal = pal
        self.lgpal = lgpal
        self.rgpal = rgpal
        self.first_attainment = {} if first_attainment is None else first_attainment

    @property
    def horizon(self) -> int:
        return len(self.pal)

    @property
    def max_pal(self) -> list[int]:
        return running_max(self.pal)

    @property
    def max_lgpal(self) -> list[int]:
        return running_max(self.lgpal)

    @property
    def max_rgpal(self) -> list[int]:
        return running_max(self.rgpal)

    def to_csv(self) -> str:
        lines = ["n,pal,lgpal,rgpal,max_pal,max_lgpal,max_rgpal"]
        max_pal, max_lgpal, max_rgpal = self.max_pal, self.max_lgpal, self.max_rgpal
        for i in range(self.horizon):
            lines.append(
                f"{i + 1},{self.pal[i]},{self.lgpal[i]},{self.rgpal[i]},"
                f"{max_pal[i]},{max_lgpal[i]},{max_rgpal[i]}"
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
            "max_pal": max(self.pal, default=0),
            "max_lgpal": max(self.lgpal, default=0),
            "max_rgpal": max(self.rgpal, default=0),
            "first_attainment": {
                str(k): v for k, v in sorted(self.first_attainment.items())
            },
        }


def build_profile(stream, horizon: int) -> PrefixProfile:
    """Minimum and greedy counts for every prefix up to the horizon.

    All three arrays come from one forward index: ``min_factors`` and the
    left-greedy counts from one series-link walk per symbol, the
    right-greedy counts from ``lps``.
    """
    idx = PalindromeIndex(materialize(stream, horizon), track_min=True, track_left=True)
    pal = idx.min_factors[1:]
    rg = right_greedy_counts(idx.lps)
    lg = idx.left_greedy_counts()
    del idx
    return PrefixProfile(
        word_spec=spec_of(stream),
        pal=pal,
        lgpal=lg,
        rgpal=rg,
        first_attainment=_first_hits(pal, max(pal, default=0)),
    )
