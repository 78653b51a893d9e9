"""Deterministic check reports with text and machine renderings.

A report is an ordered list of named checks.  The machine format is one
line per check: name, verdict and evidence joined by "; ", separated by
tabs.  The exit code follows `combined` over all lines: 0 when nothing
failed and nothing was inconclusive, 1 when any check failed, 3 when the
only defects are inconclusive checks.
Usage and parse errors exit 2 (handled by the CLI).
"""

from __future__ import annotations

from dataclasses import dataclass

from .verify import Status, Verdict

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
CITED = "cited"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


@dataclass(frozen=True)
class CheckLine:
    name: str
    verdict: str
    evidence: tuple[str, ...] = ()

    def __post_init__(self):
        if self.verdict not in (PASS, FAIL, INCONCLUSIVE, CITED):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if "\t" in self.name or "\n" in self.name:
            raise ValueError("check names must not contain tabs or newlines")


def verdict_of(status: Status) -> str:
    """The report verdict of an engine status: Isomorphic passes."""
    if status is Status.INCONCLUSIVE:
        return INCONCLUSIVE
    return PASS if status is Status.ISOMORPHIC else FAIL


def line_from_verdict(name: str, verdict: Verdict) -> CheckLine:
    return CheckLine(name, verdict_of(verdict.status), tuple(verdict.evidence))


def combined(verdicts) -> str:
    """The verdict of several checks: fail if any failed, else inconclusive
    if any was cut short by a bound, else pass (a cited check passes)."""
    verdicts = set(verdicts)
    if FAIL in verdicts:
        return FAIL
    return INCONCLUSIVE if INCONCLUSIVE in verdicts else PASS


@dataclass(frozen=True)
class Report:
    title: str
    lines: tuple[CheckLine, ...] = ()

    def exit_code(self) -> int:
        verdict = combined(line.verdict for line in self.lines)
        return {PASS: EXIT_OK, FAIL: EXIT_FAIL, INCONCLUSIVE: EXIT_INCONCLUSIVE}[verdict]

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0, CITED: 0}
        for line in self.lines:
            out[line.verdict] += 1
        return out

    def render_text(self) -> str:
        out = [f"== {self.title} =="]
        if not self.lines:
            out.append("(no checks requested)")
        for line in self.lines:
            out.append(f"{line.name}: {line.verdict}")
            for fact in line.evidence:
                out.append(f"    {fact}")
        counts = self.counts()
        summary = (f"summary: {len(self.lines)} checks | {counts[PASS]} pass, "
                   f"{counts[FAIL]} fail, {counts[INCONCLUSIVE]} inconclusive, "
                   f"{counts[CITED]} cited")
        out.append(summary)
        return "\n".join(out) + "\n"

    def render_machine(self) -> str:
        out = []
        for line in self.lines:
            out.append(f"{line.name}\t{line.verdict}\t{'; '.join(line.evidence)}")
        return "\n".join(out) + ("\n" if out else "")

    def render(self, fmt: str) -> str:
        if fmt == "text":
            return self.render_text()
        if fmt == "machine":
            return self.render_machine()
        raise ValueError(f"unknown format {fmt!r}")
