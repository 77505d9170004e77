"""Reproducer bundles: one directory per recovered compilation failure.

A bundle is everything needed to replay a pass failure on another
machine, months later::

    repro_crash_1a2b3c4d5e6f/
        manifest.json     machine, full PipelineConfig, failing pass,
                          fault plan, git SHA, python version, timestamps
        source.c          the MiniC translation unit
        pre_pass.rtl      module RTL immediately before the failing pass
        traceback.txt     the Python traceback (empty for miscompiles)
        README.txt        the one-command replay/bisect instructions

Replay recompiles under ``on_pass_failure='skip'`` with the recorded
fault plan re-armed and reports whether the same (pass, kind, error)
signature recurs.  ``python -m repro bisect`` builds on this to shrink
the failure (see :mod:`repro.resilience.bisect`).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Union

from repro.errors import ReproError
from repro.resilience.transaction import PassFailure

BUNDLE_SCHEMA = 1
BUNDLE_PREFIX = "repro_crash_"

#: How many bundles one crash directory keeps before the oldest are
#: evicted; REPRO_MAX_BUNDLES or --max-bundles override.
DEFAULT_MAX_BUNDLES = 20


def default_max_bundles() -> int:
    try:
        return max(1, int(os.environ.get(
            "REPRO_MAX_BUNDLES", DEFAULT_MAX_BUNDLES
        )))
    except ValueError:
        return DEFAULT_MAX_BUNDLES


def _bundle_age(path: Path) -> tuple:
    """Sort key: manifest creation time (mtime fallback), oldest first."""
    try:
        manifest = json.loads((path / "manifest.json").read_text())
        created = int(manifest.get("created_unix", 0))
    except (OSError, ValueError):
        created = 0
    try:
        mtime = path.stat().st_mtime
    except OSError:
        mtime = 0.0
    return (created, mtime, path.name)


def _rmtree_tolerant(path: Path) -> None:
    """``shutil.rmtree`` that shrugs at files vanishing underneath it.

    Two workers pruning the same crash directory race on every unlink:
    whoever loses sees ENOENT mid-walk.  That is success (the tree is
    going away either way), not an error.
    """
    import shutil

    def _ignore_missing(function, failed_path, exc_info):
        exc = exc_info if isinstance(exc_info, BaseException) else exc_info[1]
        if isinstance(exc, FileNotFoundError):
            return
        raise exc

    try:
        # 3.12 deprecates onerror= in favour of onexc=.
        import sys
        if sys.version_info >= (3, 12):
            shutil.rmtree(path, onexc=_ignore_missing)
        else:
            shutil.rmtree(path, onerror=_ignore_missing)
    except FileNotFoundError:
        pass


def prune_bundles(
    directory: Union[str, Path],
    max_bundles: Optional[int] = None,
) -> list:
    """Evict oldest-first until at most ``max_bundles`` bundles remain.

    Returns the paths removed.  Unbounded crash directories are a real
    operational hazard (a crash-looping service writes a bundle per
    recovered failure); the cap keeps disk usage bounded while always
    retaining the newest reproducers.

    Safe under concurrent pruners: every fleet worker prunes after every
    bundle write, so two prunes routinely target the same victim.  The
    walk tolerates ENOENT at every step and a bundle only counts as
    *removed by us* if it is actually gone afterwards.
    """
    if max_bundles is None:
        max_bundles = default_max_bundles()
    directory = Path(directory)
    if not directory.is_dir():
        return []
    bundles = sorted(
        (p for p in directory.glob(f"{BUNDLE_PREFIX}*") if p.is_dir()),
        key=_bundle_age,
    )
    removed = []
    for path in bundles[: max(0, len(bundles) - max_bundles)]:
        try:
            _rmtree_tolerant(path)
        except OSError:
            pass  # eviction is best-effort, never a crash
        if not path.exists():
            removed.append(str(path))
    return removed


def git_sha() -> str:
    """The repository HEAD, or 'unknown' outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def failure_hash(
    source: str, machine_name: str, config_json: str, failure: PassFailure
) -> str:
    """Stable 12-hex identity of one failure (names the bundle dir)."""
    blob = "\x00".join(
        (
            source,
            machine_name,
            config_json,
            failure.pass_name,
            failure.kind,
            failure.error_type,
            failure.injected,
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _publish_bundle(
    directory: Union[str, Path],
    digest: str,
    manifest: dict,
    files: dict,
    max_bundles: Optional[int],
) -> str:
    """Write bundle ``digest`` under ``directory``; returns its path.

    An existing bundle (its manifest is present) is kept.  Otherwise the
    ``files`` (name -> text) are written, then the manifest, completed
    with the schema and provenance fields, lands last through a temp
    file and ``os.replace``, so a bundle with a manifest is complete;
    then the directory is pruned to ``max_bundles``.
    """
    bundle = Path(directory) / f"{BUNDLE_PREFIX}{digest}"
    if (bundle / "manifest.json").exists():
        return str(bundle)
    bundle.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (bundle / name).write_text(text)
    manifest = {
        "schema": BUNDLE_SCHEMA,
        **manifest,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "created_unix": int(time.time()),
    }
    tmp = bundle / "manifest.json.tmp"
    with open(tmp, "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, bundle / "manifest.json")
    prune_bundles(directory, max_bundles)
    return str(bundle)


def write_bundle(
    failure: PassFailure,
    source: str,
    machine_name: str,
    config,
    directory: Union[str, Path] = ".",
    faults: str = "",
    max_bundles: Optional[int] = None,
) -> str:
    """Serialize one recovered failure; returns the bundle path.

    Idempotent: the directory name is a hash of the failure identity, so
    re-recovering the same failure reuses the existing bundle.  After a
    new bundle is written the directory is pruned to ``max_bundles``
    (``REPRO_MAX_BUNDLES``, default 20), oldest-first.
    """
    config_dict = asdict(config) if config is not None else {}
    config_json = json.dumps(config_dict, sort_keys=True)
    digest = failure_hash(source, machine_name, config_json, failure)
    name = f"{BUNDLE_PREFIX}{digest}"
    manifest = {
        "machine": machine_name,
        "config": config_dict,
        "pass": failure.pass_name,
        "function": failure.function,
        "kind": failure.kind,
        "error_type": failure.error_type,
        "message": failure.message,
        "invocation": failure.invocation,
        "injected": failure.injected,
        "faults": faults,
    }
    files = {
        "source.c": source,
        "pre_pass.rtl": failure.pre_pass_rtl,
        "traceback.txt": failure.traceback,
        "README.txt": (
            f"Recovered compilation failure: {failure.describe()}\n"
            "\n"
            "Replay (expects the same failure to recur):\n"
            f"    python -m repro replay {name}\n"
            "\n"
            "Pin the failing pass set and shrink the source:\n"
            f"    python -m repro bisect {name}\n"
        ),
    }
    return _publish_bundle(directory, digest, manifest, files, max_bundles)


def write_quarantine_bundle(
    request: dict,
    reason: str,
    directory: Union[str, Path] = ".",
    worker: int = -1,
    max_bundles: Optional[int] = None,
) -> str:
    """Serialize a request that repeatedly killed fleet workers.

    A quarantined request has no :class:`PassFailure` — the process died
    before Python could hand us one — so the bundle records the raw
    request (``request.json``), its source, and the supervisor's account
    of what happened.  Replay instructions still apply: the source
    compiles standalone, which is exactly how the investigation starts.
    """
    source = str(request.get("source", ""))
    blob = "\x00".join((
        source,
        str(request.get("machine", "")),
        str(request.get("config", "")),
        reason,
    ))
    digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
    manifest = {
        "kind": "quarantine",
        "machine": str(request.get("machine", "")),
        "config": {},
        "config_name": str(request.get("config", "")),
        "pass": "",
        "function": "",
        "error_type": "QuarantinedRequest",
        "message": reason,
        "invocation": 0,
        "injected": "",
        "worker": worker,
        "faults": str(request.get("faults", "") or ""),
    }
    files = {
        "source.c": source,
        "request.json": json.dumps(
            request, indent=1, sort_keys=True, default=str
        ) + "\n",
        "README.txt": (
            f"Quarantined service request: {reason}\n"
            "\n"
            "This request crashed its fleet worker more than once and was\n"
            "answered with a degraded local compile instead of a third try.\n"
            "\n"
            "Reproduce the crash by compiling the bundled source directly:\n"
            f"    python -m repro compile {BUNDLE_PREFIX}{digest}/source.c"
            " --machine "
            f"{request.get('machine', 'alpha')}\n"
        ),
    }
    return _publish_bundle(directory, digest, manifest, files, max_bundles)


@dataclass
class Bundle:
    """A loaded reproducer bundle."""

    path: str
    manifest: dict
    source: str
    pre_pass_rtl: str
    traceback: str

    @property
    def machine(self) -> str:
        return self.manifest["machine"]

    @property
    def pass_name(self) -> str:
        return self.manifest["pass"]

    @property
    def signature(self) -> tuple:
        return (
            self.manifest["pass"],
            self.manifest["kind"],
            self.manifest["error_type"],
        )


def load_bundle(path: Union[str, Path]) -> Bundle:
    bundle = Path(path)
    manifest_path = bundle / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except FileNotFoundError:
        raise ReproError(f"{bundle}: not a crash bundle (no manifest.json)")
    except ValueError as exc:
        raise ReproError(f"{manifest_path}: corrupt manifest: {exc}")
    if manifest.get("schema") != BUNDLE_SCHEMA:
        raise ReproError(
            f"{bundle}: unsupported bundle schema "
            f"{manifest.get('schema')!r} (want {BUNDLE_SCHEMA})"
        )
    def _read(name: str) -> str:
        try:
            return (bundle / name).read_text()
        except OSError:
            return ""
    return Bundle(
        path=str(bundle),
        manifest=manifest,
        source=_read("source.c"),
        pre_pass_rtl=_read("pre_pass.rtl"),
        traceback=_read("traceback.txt"),
    )


def config_from_bundle(bundle: Bundle, **overrides):
    """Rebuild the bundle's :class:`PipelineConfig` (tolerating fields
    added or removed since the bundle was written)."""
    from repro.pipeline import PipelineConfig

    known = {f.name for f in fields(PipelineConfig)}
    data = {
        key: value
        for key, value in bundle.manifest.get("config", {}).items()
        if key in known
    }
    if isinstance(data.get("disabled_passes"), list):
        data["disabled_passes"] = tuple(data["disabled_passes"])
    data.update(overrides)
    return PipelineConfig(**data)


@dataclass
class ReplayResult:
    """Outcome of re-running a bundle's compilation."""

    reproduced: bool
    failure: Optional[PassFailure]
    program: Optional[object]     # CompiledProgram
    error: str = ""

    def describe(self) -> str:
        if self.reproduced:
            return f"reproduced: {self.failure.describe()}"
        if self.error:
            return f"did not reproduce (compilation error: {self.error})"
        return "did not reproduce (compilation recovered nothing matching)"


def replay_bundle(
    bundle: Union[str, Path, Bundle],
    source: Optional[str] = None,
) -> ReplayResult:
    """Recompile the bundle's source and look for the same failure.

    The compilation runs under ``on_pass_failure='skip'`` with the
    recorded fault plan re-armed, so an organic crash *or* an injected
    one recurs as a recovered :class:`PassFailure` we can match on.
    """
    from repro.pipeline import compile_minic
    from repro.resilience.faults import FaultPlan

    if not isinstance(bundle, Bundle):
        bundle = load_bundle(bundle)
    config = config_from_bundle(
        bundle, name="replay", on_pass_failure="skip"
    )
    faults = FaultPlan.parse(bundle.manifest.get("faults"))
    want = bundle.signature
    try:
        program = compile_minic(
            source if source is not None else bundle.source,
            bundle.machine,
            config,
            faults=faults,
        )
    except ReproError as exc:
        return ReplayResult(False, None, None, error=str(exc))
    for failure in program.pass_failures:
        if failure.signature == want:
            return ReplayResult(True, failure, program)
    return ReplayResult(False, None, program)
