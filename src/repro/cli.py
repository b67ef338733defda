"""``python -m repro``: run registered studies and JSON study specs.

Subcommands:

* ``repro list`` -- registered studies (with their paper artifact), plus
  ``--models`` / ``--systems`` / ``--extractors`` for the other registries.
* ``repro spec <study>`` -- print a registered study's JSON spec (the
  document ``repro run`` accepts); start from this to define custom sweeps.
* ``repro run <study-or-spec.json>`` -- execute a registered study or a spec
  file: streams per-scenario progress to stderr, prints the result table,
  and exports ``--csv`` / ``--json``.  Study builder keywords pass as
  ``-p name=value``.
  Results persist to the on-disk store (``~/.cache/repro`` or
  ``$REPRO_CACHE_DIR``) so re-running a study prices nothing; point
  ``--cache-dir`` elsewhere or disable with ``--no-disk-cache``.
* ``repro cache stats|clear|prune`` -- inspect or clean that store:
  ``stats`` reports entries/bytes per fingerprint, ``clear`` empties the
  current fingerprint, ``prune`` drops stale fingerprints (``--all`` drops
  the current one too).
* ``repro serve`` -- the resident study service: an HTTP server where every
  submitted study runs through ONE shared warm runner (see
  :mod:`repro.service`), so resubmissions and overlapping grids price
  nothing.  ``POST /studies`` submits, ``GET /jobs/<id>/events`` streams
  NDJSON rows, ``GET /jobs/<id>/table.csv`` fetches the finished table.

Examples::

    python -m repro list
    python -m repro run table4_gemm_bottlenecks --csv table4.csv
    python -m repro spec table4_gemm_bottlenecks > sweep.json
    python -m repro run sweep.json --json out.json
    python -m repro run serving_latency_throughput_frontier -p num_requests=16
    python -m repro cache stats
    python -m repro serve --port 8642 --workers 2
"""

from __future__ import annotations

import argparse
import ast
import sys
import time
from typing import Dict, List, Optional, Sequence

from .errors import ReproError
from .studies import Study, get_study, list_studies
from .studies.extractors import list_derives, list_extractors
from .sweep import SweepResult, SweepRunner, SweepTable


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the paper's registered studies (or your own JSON study specs).",
    )
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    list_cmd = sub.add_parser("list", help="list registered studies and registries")
    list_cmd.add_argument("--models", action="store_true", help="also list the model zoo")
    list_cmd.add_argument("--systems", action="store_true", help="also list the system catalog")
    list_cmd.add_argument(
        "--extractors", action="store_true", help="also list named extractors and derives"
    )
    list_cmd.set_defaults(handler=_cmd_list)

    spec_cmd = sub.add_parser("spec", help="print a registered study's JSON spec")
    spec_cmd.add_argument("study", help="registered study name")
    spec_cmd.add_argument("-p", "--param", action="append", default=[], metavar="NAME=VALUE",
                          help="study builder keyword (repeatable)")
    spec_cmd.add_argument("-o", "--out", default=None, help="write the spec to a file instead of stdout")
    spec_cmd.set_defaults(handler=_cmd_spec)

    run_cmd = sub.add_parser("run", help="run a registered study or a spec.json file")
    run_cmd.add_argument("study", help="registered study name, or a path to a JSON spec")
    run_cmd.add_argument("-p", "--param", action="append", default=[], metavar="NAME=VALUE",
                         help="study builder keyword (registered studies only; repeatable)")
    run_cmd.add_argument("--cache-dir", default=None, metavar="PATH",
                         help="root of the persistent result store "
                              "(default: ~/.cache/repro, or $REPRO_CACHE_DIR)")
    run_cmd.add_argument("--no-disk-cache", action="store_true",
                         help="do not read or write the persistent result store")
    run_cmd.add_argument("--csv", default=None, metavar="PATH", help="write the result table as CSV")
    run_cmd.add_argument("--json", dest="json_out", default=None, metavar="PATH",
                         help="write the result table as JSON")
    run_cmd.add_argument("--quiet", action="store_true", help="suppress the table and progress output")
    run_cmd.add_argument("--max-rows", type=int, default=40,
                         help="rows printed to stdout (default: 40; the exports always carry all rows)")
    run_cmd.set_defaults(handler=_cmd_run)

    serve_cmd = sub.add_parser("serve", help="run the resident HTTP study service")
    serve_cmd.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=8642, help="bind port (default: 8642; 0 picks a free one)")
    serve_cmd.add_argument("--workers", type=int, default=2,
                           help="concurrent study jobs (default: 2); all share one warm runner")
    serve_cmd.add_argument("--cache-dir", default=None, metavar="PATH",
                           help="root of the persistent result store "
                                "(default: ~/.cache/repro, or $REPRO_CACHE_DIR)")
    serve_cmd.add_argument("--no-disk-cache", action="store_true",
                           help="do not read or write the persistent result store")
    serve_cmd.set_defaults(handler=_cmd_serve)

    cache_cmd = sub.add_parser("cache", help="inspect or clean the persistent result store")
    cache_sub = cache_cmd.add_subparsers(dest="cache_command")
    cache_cmd.set_defaults(handler=_cmd_cache, cache_command=None)
    for verb, help_text in (
        ("stats", "entry counts and bytes per fingerprint"),
        ("clear", "delete every entry under the current fingerprint"),
        ("prune", "delete stale fingerprint directories"),
    ):
        verb_cmd = cache_sub.add_parser(verb, help=help_text)
        verb_cmd.add_argument("--cache-dir", default=None, metavar="PATH",
                              help="root of the persistent result store "
                                   "(default: ~/.cache/repro, or $REPRO_CACHE_DIR)")
        verb_cmd.set_defaults(handler=_cmd_cache, cache_command=verb)
        if verb == "prune":
            verb_cmd.add_argument("--keep-current", dest="keep_current", action="store_true", default=True,
                                  help="keep the current fingerprint (default)")
            verb_cmd.add_argument("--all", dest="keep_current", action="store_false",
                                  help="also delete the current fingerprint")
    return parser


# ---------------------------------------------------------------------------
# repro list
# ---------------------------------------------------------------------------

def _cmd_list(args: argparse.Namespace) -> int:
    entries = list_studies()
    width = max((len(entry.name) for entry in entries), default=0)
    print("registered studies:")
    for entry in entries:
        artifact = f"[{entry.artifact}] " if entry.artifact else ""
        print(f"  {entry.name:<{width}}  {artifact}{entry.description}")
    if args.models:
        from .models.zoo import list_models

        print("\nmodels:")
        for name in list_models():
            print(f"  {name}")
    if args.systems:
        from .hardware.catalog import list_systems

        print("\nsystems:")
        for name in list_systems():
            print(f"  {name}")
    if args.extractors:
        print("\nextractors:")
        for name in list_extractors():
            print(f"  {name}")
        print("\nderives:")
        for name in list_derives():
            print(f"  {name}")
    return 0


# ---------------------------------------------------------------------------
# repro spec
# ---------------------------------------------------------------------------

def _cmd_spec(args: argparse.Namespace) -> int:
    study = get_study(args.study, **_parse_params(args.param))
    text = study.to_json(indent=1)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# repro run
# ---------------------------------------------------------------------------

def _cmd_run(args: argparse.Namespace) -> int:
    study = _resolve_study(args.study, _parse_params(args.param))
    if args.no_disk_cache:
        disk_cache: "str | bool" = False
    else:
        disk_cache = args.cache_dir if args.cache_dir is not None else True
    runner = SweepRunner(disk_cache=disk_cache)
    total = sum(1 for _ in study.combos())
    progress = None if args.quiet else _Progress(study.name, total)
    started = time.perf_counter()
    try:
        table = study.run(runner=runner, on_result=progress)
    except KeyboardInterrupt:
        # Every completed scenario has already been flushed to the disk
        # store by the runner (results persist per-evaluation, not at the
        # end), so an interrupted sweep loses nothing: the follow-up run
        # resumes from the store and prices only the remainder.
        elapsed = time.perf_counter() - started
        if progress is not None:
            progress.finish()
        print("interrupted", file=sys.stderr)
        _print_stats_line(study.name, f"interrupted after {elapsed:.2f}s", runner)
        if disk_cache is not False:
            print(f"re-run `repro run {args.study}` to resume; completed scenarios "
                  "are priced from the persistent store", file=sys.stderr)
        return 130
    elapsed = time.perf_counter() - started
    if progress is not None:
        progress.finish()
    if not args.quiet:
        _print_table(table, max_rows=args.max_rows)
    if args.csv:
        table.to_csv(args.csv)
        print(f"wrote {args.csv}", file=sys.stderr)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            handle.write(table.to_json(indent=1) + "\n")
        print(f"wrote {args.json_out}", file=sys.stderr)
    _print_stats_line(study.name, f"{len(table)} rows in {elapsed:.2f}s", runner)
    return 0


def _print_stats_line(name: str, headline: str, runner: SweepRunner) -> None:
    """The closing one-line sweep summary on stderr (shared with the interrupt path)."""
    stats = runner.stats.snapshot()
    print(
        f"{name}: {headline} "
        f"({stats['evaluations']} evaluations, {stats['cache_hits']} cache hits, "
        f"{stats['disk_hits']} disk hits, {stats['batched_scenarios']} batched, "
        f"{stats['errors']} errors, "
        f"key-hash {stats['keyhash_seconds']:.2f}s, plan {stats['plan_seconds']:.2f}s, "
        f"price {stats['price_seconds']:.2f}s, scatter {stats['scatter_seconds']:.2f}s)",
        file=sys.stderr,
    )


# ---------------------------------------------------------------------------
# repro serve
# ---------------------------------------------------------------------------

def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServiceApi, StudyService, build_registry, make_server

    if args.no_disk_cache:
        disk_cache: "str | bool" = False
    else:
        disk_cache = args.cache_dir if args.cache_dir is not None else True
    registry = build_registry(workers=args.workers, disk_cache=disk_cache)
    service = StudyService(registry)
    server = make_server(ServiceApi(service), host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(
        f"repro-serve listening on http://{host}:{port} "
        f"({args.workers} worker(s); POST /studies to submit)",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.server_close()
        service.close()
    return 0


# ---------------------------------------------------------------------------
# repro cache
# ---------------------------------------------------------------------------

def _cmd_cache(args: argparse.Namespace) -> int:
    from .sweep import DiskResultStore

    if args.cache_command is None:
        print("usage: repro cache {stats,clear,prune} [--cache-dir PATH]", file=sys.stderr)
        return 2
    store = DiskResultStore(root=args.cache_dir) if args.cache_dir else DiskResultStore()
    if args.cache_command == "stats":
        report = store.stats()
        if not report:
            print(f"{store.root}: empty (no fingerprint directories)")
            return 0
        print(f"{store.root}:")
        for fingerprint, info in report.items():
            marker = "  (current)" if info["current"] else ""
            print(f"  {fingerprint}  {info['entries']} entries, {info['bytes']} bytes{marker}")
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} entries under {store.root / store.fingerprint}")
        return 0
    removed_fingerprints = store.prune(keep_current=args.keep_current)
    if removed_fingerprints:
        print(f"pruned {len(removed_fingerprints)} fingerprint(s): {', '.join(removed_fingerprints)}")
    else:
        print("nothing to prune")
    return 0


def _resolve_study(name_or_path: str, params: Dict[str, object]) -> Study:
    """A registered name, or a path to a ``Study.to_dict()`` JSON document."""
    import json
    import os

    if not (name_or_path.endswith(".json") or os.path.sep in name_or_path):
        try:
            return get_study(name_or_path, **params)
        except TypeError as error:
            # A mistyped -p name reaches the builder as an unexpected keyword.
            raise ReproError(f"bad -p parameter for study {name_or_path!r}: {error}") from None
    if params:
        raise ReproError("-p parameters apply to registered studies, not spec files")
    try:
        with open(name_or_path) as handle:
            return Study.from_json(handle.read())
    except OSError as error:
        raise ReproError(f"cannot read study spec {name_or_path!r}: {error}") from None
    except json.JSONDecodeError as error:
        raise ReproError(f"{name_or_path!r} is not a valid JSON study spec: {error}") from None


def _parse_params(pairs: Sequence[str]) -> Dict[str, object]:
    """Parse repeated ``name=value`` flags; values are Python literals when possible."""
    params: Dict[str, object] = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise ReproError(f"expected NAME=VALUE, got {pair!r}")
        try:
            params[name] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            params[name] = raw  # plain string (model/system names, modes)
    return params


class _Progress:
    """Streaming per-scenario progress line on stderr (via ``on_result``).

    The live ``\\r`` line renders only when stderr is a TTY; piped, CI, and
    server logs get no per-scenario noise (the closing stats line on stderr
    still prints).  ``--quiet`` suppresses even that by not constructing one.
    """

    def __init__(self, name: str, total: int):
        self.name = name
        self.total = total
        self.done = 0
        self.live = getattr(sys.stderr, "isatty", lambda: False)()

    def __call__(self, result: SweepResult) -> None:
        self.done += 1
        if not self.live:
            return
        source = "cached" if result.from_cache else ("error" if result.error else "ok")
        scenario = result.scenario
        what = scenario.model.name if scenario.model is not None else scenario.kind.value
        sys.stderr.write(f"\r{self.name}: {self.done}/{self.total} [{source:>6}] {what:<24}")
        sys.stderr.flush()

    def finish(self) -> None:
        if self.done and self.live:
            sys.stderr.write("\n")
            sys.stderr.flush()


def _print_table(table: SweepTable, max_rows: int = 40) -> None:
    """Render the table as fixed-width text (floats shortened for reading)."""
    names = table.keys()
    if not names:
        print("(empty table)")
        return

    def fmt(value: object) -> str:
        if isinstance(value, bool) or value is None:
            return str(value)
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    rows_shown: List[List[str]] = []
    for index, row in enumerate(table):
        if index >= max_rows:
            break
        rows_shown.append([fmt(row[name]) for name in names])
    widths = [
        max(len(name), *(len(row[i]) for row in rows_shown)) if rows_shown else len(name)
        for i, name in enumerate(names)
    ]
    print("  ".join(name.ljust(width) for name, width in zip(names, widths)))
    for row in rows_shown:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    if len(table) > max_rows:
        print(f"... ({len(table) - max_rows} more rows; use --csv/--json for the full table)")
