"""Auto-bisect and test-case reduction for crash bundles, bugpoint-style.

``python -m repro bisect <bundle>`` answers three questions about a
recovered failure:

1. **Which passes?**  Delta-debug the optional pipeline stages (disable
   halves, then single stages) down to the minimal set whose presence
   still reproduces the failure signature.  An injected fault at pass
   ``P`` can only fire while ``P`` runs, so the search provably pins it.
2. **Which unroll factor?**  When ``unroll`` is implicated, binary-search
   the smallest explicit factor that still fails.
3. **How little source?**  Greedily drop line chunks (halving chunk
   sizes, ddmin-style) from the MiniC source while the failure keeps
   reproducing; unparseable candidates simply fail the predicate.

Every probe is one full (cache-bypassing) compilation under
``on_pass_failure='skip'`` with the bundle's fault plan re-armed, so the
probe itself can never crash the bisector.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.pipeline import STAGE_NAMES
from repro.resilience.bundle import Bundle, config_from_bundle
from repro.resilience.faults import FaultPlan

#: Stages a failing compilation can do without (pipeline order).
#: ``lower`` is mandatory — when a failure survives with every optional
#: stage disabled, the bundle's own pass is reported as the irreducible
#: culprit.
OPTIONAL_STAGES = tuple(name for name in STAGE_NAMES if name != "lower")


@dataclass
class BisectResult:
    """What the bisector pinned down."""

    culprit: List[str]                  # minimal failing pass set
    unroll_factor: Optional[int] = None  # smallest factor that still fails
    reduced_source: Optional[str] = None
    original_lines: int = 0
    reduced_lines: int = 0
    attempts: int = 0
    log: List[str] = _field(default_factory=list)

    def describe(self) -> str:
        lines = [
            "culprit pass set: "
            + (", ".join(self.culprit) if self.culprit else "(none pinned)")
        ]
        if self.unroll_factor is not None:
            lines.append(
                f"smallest failing unroll factor: {self.unroll_factor}"
            )
        if self.reduced_source is not None:
            lines.append(
                f"source reduced {self.original_lines} -> "
                f"{self.reduced_lines} lines"
            )
        lines.append(f"{self.attempts} probe compilations")
        return "\n".join(lines)


class _Prober:
    """Compiles probe variants and checks the failure signature."""

    def __init__(self, bundle: Bundle):
        self.bundle = bundle
        self.signature = bundle.signature
        self.attempts = 0

    def fails(
        self,
        source: Optional[str] = None,
        disabled: Sequence[str] = (),
        unroll_factor: Optional[int] = None,
    ) -> bool:
        """Does this variant still reproduce the bundle's failure?"""
        from repro.pipeline import compile_minic

        self.attempts += 1
        overrides = {
            "name": "bisect",
            "on_pass_failure": "skip",
            "disabled_passes": tuple(disabled),
        }
        if unroll_factor is not None:
            overrides["unroll_factor"] = unroll_factor
        config = config_from_bundle(self.bundle, **overrides)
        faults = FaultPlan.parse(self.bundle.manifest.get("faults"))
        try:
            program = compile_minic(
                source if source is not None else self.bundle.source,
                self.bundle.machine,
                config,
                faults=faults,
            )
        except ReproError:
            return False  # unparseable/uncompilable probe: not our failure
        return any(
            f.signature == self.signature for f in program.pass_failures
        )


def _minimize_stages(
    candidates: Sequence[str], still_fails: Callable[[Sequence[str]], bool]
) -> List[str]:
    """ddmin over the stage list: drop halves, then singles, while the
    failure persists with only the surviving stages enabled."""
    needed = list(candidates)
    chunk = max(1, len(needed) // 2)
    while chunk >= 1:
        start = 0
        while start < len(needed):
            trial = needed[:start] + needed[start + chunk:]
            if still_fails(trial):
                needed = trial
            else:
                start += chunk
        if chunk == 1:
            break
        chunk = max(1, chunk // 2)
    return needed


def _minimize_unroll(
    prober: _Prober, disabled: Sequence[str], upper: int
) -> Optional[int]:
    """Binary-search the smallest explicit unroll factor still failing."""
    factors = [f for f in (2, 4, 8, 16) if f <= max(upper, 2)]
    failing: Optional[int] = None
    lo, hi = 0, len(factors) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        if prober.fails(disabled=disabled, unroll_factor=factors[mid]):
            failing = factors[mid]
            hi = mid - 1
        else:
            lo = mid + 1
    return failing


def reduce_source(
    source: str,
    predicate: Callable[[str], bool],
    progress: Optional[Callable[[str], None]] = None,
) -> str:
    """Greedy line-chunk reduction: keep dropping the largest chunk whose
    removal still satisfies ``predicate`` until nothing more drops."""
    lines = source.splitlines()
    shrunk = True
    while shrunk:
        shrunk = False
        size = max(1, len(lines) // 2)
        while size >= 1:
            start = 0
            while start < len(lines):
                trial = lines[:start] + lines[start + size:]
                text = "\n".join(trial) + "\n"
                # Cheap pre-filter: wildly unbalanced braces cannot parse.
                if text.count("{") == text.count("}") and predicate(text):
                    lines = trial
                    shrunk = True
                    if progress:
                        progress(f"reduced to {len(lines)} lines")
                else:
                    start += size
            size //= 2
    return "\n".join(lines) + "\n"


def bisect_bundle(
    bundle: Bundle,
    reduce: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> BisectResult:
    """Pin the minimal failing pass set (and unroll factor), then shrink
    the source.  Returns a :class:`BisectResult`; ``culprit`` is empty
    only when the bundle's failure no longer reproduces at all."""
    prober = _Prober(bundle)
    result = BisectResult(culprit=[])
    say = progress or (lambda _msg: None)

    if not prober.fails():
        result.attempts = prober.attempts
        result.log.append("failure does not reproduce from the bundle")
        return result
    say(f"failure reproduces: {'/'.join(bundle.signature)}")

    def still_fails(enabled: Sequence[str]) -> bool:
        disabled = tuple(s for s in OPTIONAL_STAGES if s not in enabled)
        return prober.fails(disabled=disabled)

    culprit = _minimize_stages(OPTIONAL_STAGES, still_fails)
    if not culprit:
        # Survives with every optional stage disabled: the failure lives
        # in a mandatory stage (frontend/lower) — report the bundle's own.
        culprit = [bundle.pass_name]
    result.culprit = culprit
    say(f"culprit pass set: {', '.join(culprit)}")

    disabled = tuple(s for s in OPTIONAL_STAGES if s not in culprit)
    if "unroll" in culprit:
        config = config_from_bundle(bundle)
        upper = config.unroll_factor or 8
        result.unroll_factor = _minimize_unroll(prober, disabled, upper)
        if result.unroll_factor is not None:
            say(f"smallest failing unroll factor: {result.unroll_factor}")

    if reduce:
        result.original_lines = len(bundle.source.splitlines())
        reduced = reduce_source(
            bundle.source,
            lambda text: prober.fails(source=text, disabled=disabled),
            progress=progress,
        )
        result.reduced_source = reduced
        result.reduced_lines = len(reduced.splitlines())
        say(
            f"source reduced {result.original_lines} -> "
            f"{result.reduced_lines} lines"
        )

    result.attempts = prober.attempts
    return result
