"""Three-valued predicate results with witnesses and the strategy used."""

from __future__ import annotations

from dataclasses import dataclass, field


TRUE = "true"
FALSE = "false"
UNDECIDED = "undecided"

EXHAUSTIVE = "exhaustive"
CONSTRUCTIVE = "constructive"


@dataclass
class VerdictReport:
    predicate: str
    verdict: str
    strategy: str = CONSTRUCTIVE
    witness: object = None
    counterexample: object = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in (TRUE, FALSE, UNDECIDED):
            raise ValueError("bad verdict %r" % self.verdict)
        if self.verdict == FALSE and self.counterexample is None:
            raise ValueError("false verdicts must carry a counterexample")

    def __bool__(self):
        return self.verdict == TRUE

    @property
    def is_false(self):
        return self.verdict == FALSE

    @property
    def is_undecided(self):
        return self.verdict == UNDECIDED

    def summary(self):
        return "%s: %s (%s)" % (self.predicate, self.verdict, self.strategy)


def combine(*strategies):
    """The strategy of a verdict built from parts: the weakest of theirs,
    exhaustive > constructive; constructive when there are none."""
    return EXHAUSTIVE if EXHAUSTIVE in strategies else CONSTRUCTIVE
