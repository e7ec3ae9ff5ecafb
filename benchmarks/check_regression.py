"""Gate benchmark artifacts against their committed baselines.

``benchmarks/gates.json`` is the one list of gated benches: each row
``{artifact, metric, threshold}`` says that every arm of
``artifacts/<artifact>.json`` (written by ``bench_<artifact>.py``) may
raise ``metric`` (lower is better) at most ``threshold`` (relative)
against ``baselines/<artifact>.json``.  The gated metrics
are deterministic given the seeds (simulated clocks, wire bytes,
staleness), or only gate an order of magnitude, so any drift is a real
behavior change — either a bug, or an intentional change that should
come with refreshed baselines (attach the ``refresh-baselines`` label
to the PR, or rerun the bench and copy its artifact over the
baseline).

The manifest and the baselines map one to one: a baseline without a
row and a row without a baseline both fail, so neither can go stale
unnoticed.  Host wall-clock speed is not gated here; the perf ledger
(``benchmarks/ledger/``) measures it.

Usage::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_*.py
    python benchmarks/check_regression.py [MANIFEST]

Exit status 0 when every row is within its threshold, 1 on a
regression or an unmatched row or baseline, 2 on a malformed manifest.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

MANIFEST = Path(__file__).parent / "gates.json"
ROW_KEYS = {"artifact", "metric", "threshold"}


def compare(artifact: dict, baseline: dict, metric: str,
            threshold: float) -> tuple[list[str], list[str]]:
    """Return ``(failures, report_lines)`` for the two result sets; a
    rise of ``metric`` beyond ``threshold`` fails."""
    failures: list[str] = []
    lines: list[str] = []
    base_results = baseline.get("results", {})
    new_results = artifact.get("results", {})
    if not base_results:
        return ["baseline has no results"], lines
    # Symmetric coverage: an arm only in the artifact is ungated work
    # (someone added an arm without refreshing the baseline).
    for name in new_results:
        if name not in base_results:
            failures.append(
                f"arm {name!r} has no baseline entry — regenerate and "
                "commit the baseline so the new arm is gated"
            )
    width = max(len(name) for name in base_results)
    lines.append(f"{'arm'.ljust(width)}  {'baseline':>10}  {'current':>10}  delta")
    for name, base in base_results.items():
        if name not in new_results:
            failures.append(f"arm {name!r} missing from the artifact")
            continue
        new = new_results[name]
        if base.get("server_updates") != new.get("server_updates"):
            failures.append(
                f"arm {name!r}: server_updates changed "
                f"({base.get('server_updates')} -> {new.get('server_updates')}) "
                "— the benchmark semantics moved, refresh the baseline"
            )
            continue
        old_v, new_v = base.get(metric), new.get(metric)
        if old_v is None or new_v is None:
            # Name the side that dropped the metric — a typo'd gates.json metric
            # or a bench that stopped emitting a gated field should be
            # a one-glance diagnosis, not archaeology.
            side = ("baseline" if old_v is None else "artifact")
            have = sorted(k for k, v in (base if old_v is None else new).items()
                          if isinstance(v, (int, float)))
            failures.append(
                f"arm {name!r}: gated metric {metric!r} missing from the "
                f"{side} — numeric metrics present there: {have}"
            )
            continue
        if old_v == 0 and new_v != 0:
            # A zero baseline would make any relative delta vacuous —
            # never let it silently disable the gate.
            failures.append(
                f"arm {name!r}: {metric} moved off a zero baseline "
                f"(0 -> {new_v:.3g}); refresh the baseline deliberately"
            )
            continue
        delta = (new_v - old_v) / old_v if old_v else 0.0
        marker = ""
        if delta > threshold:
            marker = "  << REGRESSION"
            failures.append(
                f"arm {name!r}: {metric} regressed {delta:+.1%} "
                f"({old_v:.3g} -> {new_v:.3g}, threshold {threshold:.0%})"
            )
        elif delta < -threshold:
            # A big improvement is good news but stale-baseline news:
            # surface it without failing.
            marker = "  (improved - consider refreshing the baseline)"
        lines.append(f"{name.ljust(width)}  {old_v:>10.3g}  {new_v:>10.3g}  "
                     f"{delta:+7.1%}{marker}")
    return failures, lines


def _load_rows(parser: argparse.ArgumentParser, manifest: Path) -> list[dict]:
    """The manifest's rows; anything malformed is a usage error."""
    if not manifest.is_file():
        parser.error(f"{manifest} does not exist")
    try:
        rows = json.loads(manifest.read_text())
    except json.JSONDecodeError as exc:
        parser.error(f"{manifest}: not valid JSON ({exc})")
    if not isinstance(rows, list) or not rows:
        parser.error(f"{manifest}: expected a non-empty list of rows")
    for row in rows:
        if not isinstance(row, dict) or set(row) != ROW_KEYS:
            parser.error(f"{manifest}: row {row!r} must have exactly the "
                         f"keys {sorted(ROW_KEYS)}")
        for key in ("artifact", "metric"):
            # The artifact names files: a path would escape
            # benchmarks/, a non-string would break the orphan check.
            if not isinstance(row[key], str) or not row[key] \
                    or "/" in row[key]:
                parser.error(f"{manifest}: row {row!r}: {key} must be a "
                             "non-empty name without a path separator")
        label = f"{manifest.name} row {row['artifact']}/{row['metric']}"
        threshold = row["threshold"]
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)) \
                or not threshold > 0:
            parser.error(f"{label}: threshold must be a positive number, "
                         f"got {threshold!r}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="gate benchmark artifacts against their baselines")
    parser.add_argument("manifest", nargs="?", type=Path, default=MANIFEST,
                        help="gate list (default: benchmarks/gates.json); "
                             "artifacts/ and baselines/ sit beside it")
    args = parser.parse_args(argv)
    rows = _load_rows(parser, args.manifest)
    root = args.manifest.parent
    gated = {row["artifact"] for row in rows}
    baselined = {path.stem for path in (root / "baselines").glob("*.json")}

    failures = [f"baselines/{name}.json has no row in {args.manifest.name} "
                "— gate it or delete it" for name in sorted(baselined - gated)]
    failures += [f"{args.manifest.name} row {name!r} has no "
                 f"baselines/{name}.json — commit one (refresh-baselines)"
                 for name in sorted(gated - baselined)]
    for row in rows:
        name, metric = row["artifact"], row["metric"]
        if name not in baselined:
            continue
        artifact_path = root / "artifacts" / f"{name}.json"
        if not artifact_path.is_file():
            failures.append(f"{artifact_path} does not exist — run "
                            f"bench_{name}.py first")
            continue
        row_failures, lines = compare(
            json.loads(artifact_path.read_text()),
            json.loads((root / "baselines" / f"{name}.json").read_text()),
            metric, row["threshold"])
        print(f"== {name}: {metric} (threshold {row['threshold']:.0%}) ==")
        for line in lines:
            print(line)
        failures += [f"{name}: {failure}" for failure in row_failures]
    if failures:
        for failure in dict.fromkeys(failures):  # two rows, one artifact
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"OK: {len(rows)} gates, no regression beyond a threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
