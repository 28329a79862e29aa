"""Command-line interface: run any experiment of the paper from a shell.

Examples
--------
List the available methods and experiments::

    python -m repro.cli list

Run one method on a chosen workload::

    python -m repro.cli run --method calibre-simclr --dataset cifar10 \
        --setting quantity --param 2 --samples 50 --rounds 25

Parallelize client execution across processes (results are identical to
the serial default — only wall-clock changes)::

    python -m repro.cli run --method calibre-simclr --backend process --workers 4

Regenerate a paper panel::

    python -m repro.cli fig3 --panel 0
    python -m repro.cli fig4 --panel 1
    python -m repro.cli table1

Run a paper artifact as a persistent, resumable sweep, then regenerate
its table from the store alone (no retraining)::

    python -m repro.cli sweep --exp table1 --runs-dir runs/table1 --seeds 0 1 2
    python -m repro.cli report --exp table1 --runs-dir runs/table1 --seeds 0 1 2

Sweep an embedding figure's grid (``--grid`` is an alias of ``--exp``),
then render the figure as SVG purely from the stored records::

    python -m repro.cli sweep --grid fig5 --runs-dir runs/fig5
    python -m repro.cli figures fig5 --store runs/fig5 --out fig5.svg
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from .analysis.cli import add_check_arguments, run_check_command
from .eval import (
    NonIIDSetting,
    available_methods,
    format_ablation_table,
    format_across_seeds_table,
    format_comparison_table,
    format_series_csv,
    format_silhouette_across_seeds,
    format_silhouette_table,
    render_series_svg,
    run_experiment,
)
from .experiments import (
    EMBEDDING_FIGURES,
    FIG3_PANELS,
    FIG4_PANELS,
    TABLE1_SETTING,
    TABLE1_VARIANTS,
    embeddings_sweep,
    execute_embedding_cell,
    fig3_sweep,
    fig4_sweep,
    figure_results_from_records,
    render_figure_svg,
    run_fig3_panel,
    run_fig4_panel,
    run_table1,
    table1_rows_across_seeds,
    table1_rows_from_records,
    table1_sweep,
    scaled_spec,
)
from .experiments.settings import SCALED_CONFIG
from .fl.execution import available_backends, numeric_environment, pin_blas_threads
from .ioutil import atomic_write_text
from .runs import (
    CorruptRecord,
    RunStore,
    outcome_from_records,
    run_sweep,
    save_outcome,
)
from .telemetry import (
    Tracer,
    chrome_trace,
    chrome_trace_from_cells,
    load_store_telemetry,
    render_profile,
)

__all__ = ["main", "build_parser"]

SWEEP_EXPERIMENTS = ("table1", "fig3", "fig4") + EMBEDDING_FIGURES
FIGURE_CHOICES = tuple(sorted(EMBEDDING_FIGURES + ("fig3", "fig4")))
_PANELS = {"fig3": FIG3_PANELS, "fig4": FIG4_PANELS}


class _UsageError(Exception):
    """A flag value the CLI, config or spec validation rejected;
    :func:`main` prints it as one stderr line and exits 2."""


class _Flag(NamedTuple):
    """Everything the CLI knows about one flag, written once.

    ``field`` names the ``FederatedConfig`` field the flag overrides;
    ``minimum`` is its lower bound, checked by :func:`main` after
    parsing; ``grids`` lists the sweep grids it shapes when it is one of
    :data:`_GRID_FLAGS`, which the ``repro report`` hint repeats.
    """

    options: Tuple[str, ...]
    kwargs: Dict[str, Any]
    field: Optional[str] = None
    minimum: Optional[int] = None
    grids: Tuple[str, ...] = SWEEP_EXPERIMENTS

    @property
    def dest(self) -> str:
        return self.kwargs.get("dest", self.options[0].lstrip("-").replace("-", "_"))

    def helped(self, text: str) -> "_Flag":
        """The same flag with a command-specific help text."""
        return self._replace(kwargs={**self.kwargs, "help": text})


def _flag(*options: str, field: Optional[str] = None,
          minimum: Optional[int] = None,
          grids: Tuple[str, ...] = SWEEP_EXPERIMENTS, **kwargs) -> _Flag:
    return _Flag(options, kwargs, field, minimum, grids)


# Flags that *define* a sweep grid, shared by ``sweep``, ``report`` and
# ``figures``: those commands rebuild the same grid to know which
# content-hashed cells to read, so each must be given identically to every
# command, and the ``repro report`` hint repeats them.
_GRID_FLAGS = (
    _flag("--seeds", type=int, nargs="+", default=[0],
          help="seed axis of the grid (default: 0)"),
    _flag("--methods", nargs="*", default=None,
          help="method subset (default: the artifact's full list)"),
    _flag("--rounds", type=int, default=None, field="rounds",
          help="override config rounds (changes cell hashes)"),
    _flag("--clients", type=int, default=None, field="num_clients",
          help="override config num_clients (changes cell hashes)"),
    _flag("--samples", type=int, default=None,
          help="override samples per client (changes cell hashes)"),
    _flag("--novel", type=int, default=6, grids=("fig4",),
          help="novel clients per cell (fig4 only)"),
    _flag("--embed-clients", type=int, default=None,
          help="clients sampled into an embedding figure (changes cell "
               "hashes; embedding grids only)"),
    _flag("--embed-samples", type=int, default=None,
          help="samples embedded per client (changes cell hashes; "
               "embedding grids only)"),
    _flag("--tsne-iterations", type=int, default=None,
          help="t-SNE gradient steps (changes cell hashes; embedding grids "
               "only)"),
)

# ``figures`` names its artifact positionally, so it takes no --exp.
_GRID = (
    _flag("--panel", type=int, default=0,
          help="panel index for fig3 (0-3) / fig4 (0-1)"),
    _flag("--runs-dir", "--store", dest="runs_dir", required=True,
          metavar="DIR",
          help="run-store directory (created on demand by 'sweep'; --store "
               "is an alias)"),
) + _GRID_FLAGS
_EXP = _flag("--exp", "--grid", dest="exp", required=True,
             choices=SWEEP_EXPERIMENTS,
             help="which paper artifact's grid to use (--grid is an alias)")

_CLIENT_BATCH = _flag("--client-batch", type=int, default=None, metavar="K",
                      field="client_batch", minimum=1)
_CHECKPOINT_EVERY = _flag("--checkpoint-every", type=int, default=1,
                          metavar="K", minimum=1)
_SEED = _flag("--seed", type=int, default=0)

# The flags of every command but ``list`` and ``check`` (whose flags
# ``repro.analysis.cli`` owns), in registration and therefore --help order.
_COMMAND_FLAGS: Dict[str, Tuple[_Flag, ...]] = {
    "run": (
        _flag("--method", action="append", required=True,
              help="method name (repeatable)"),
        _flag("--dataset", default="cifar10",
              choices=["cifar10", "cifar100", "stl10"]),
        _flag("--setting", default="quantity",
              choices=["quantity", "dirichlet", "iid"]),
        _flag("--param", type=float, default=2.0,
              help="classes per client (quantity) or concentration"),
        _flag("--samples", type=int, default=50, help="samples per client"),
        _flag("--rounds", type=int, default=SCALED_CONFIG.rounds,
              field="rounds"),
        _flag("--clients", type=int, default=SCALED_CONFIG.num_clients,
              field="num_clients"),
        _SEED._replace(field="seed"),
        _flag("--backend", default="serial", choices=available_backends(),
              field="backend",
              help="client-execution engine; results are identical across "
                   "backends (default: serial)"),
        _flag("--workers", type=int, default=None, field="workers", minimum=1,
              help="worker count for parallel backends (default: all cores)"),
        _CLIENT_BATCH.helped(
            "cohort-vectorized client execution: omit for auto (batch "
            "homogeneous cohorts whole), 1 to disable, K>=2 to cap cohort "
            "size; results are bitwise identical either way"),
        _flag("--shared-memory", default="auto", choices=["auto", "on", "off"],
              help="zero-copy shared-memory client-data plane (process "
                   "backend only): 'auto' enables it when available, 'on' "
                   "warns if it cannot activate, 'off' pickles datasets "
                   "inline"),
        _flag("--csv", action="store_true", help="also print the CSV series"),
        _flag("--out", default=None, metavar="PATH",
              help="persist the full ExperimentOutcome as JSON (same "
                   "serializer as the sweep run store)"),
        _flag("--checkpoints", default=None, metavar="DIR",
              help="write a round-level session checkpoint per method under "
                   "DIR (atomic, one file per method, overwritten each "
                   "round)"),
        _flag("--resume", action="store_true",
              help="resume each method from its checkpoint in --checkpoints "
                   "if one exists; only the remaining rounds recompute and "
                   "the result is bitwise identical to an uninterrupted run"),
        _CHECKPOINT_EVERY.helped(
            "checkpoint after every K-th round (default: 1; larger K trades "
            "at most K-1 recomputed rounds for less write I/O)"),
        _flag("--trace-out", default=None, metavar="PATH",
              help="record span telemetry for the whole run and write it as "
                   "Chrome trace-event JSON (open in Perfetto or "
                   "chrome://tracing); results are identical with or "
                   "without it"),
    ),
    "fig3": (
        _flag("--panel", type=int, default=0, choices=range(len(FIG3_PANELS))),
        _SEED,
        _flag("--methods", nargs="*", default=None),
    ),
    "fig4": (
        _flag("--panel", type=int, default=0, choices=range(len(FIG4_PANELS))),
        _SEED,
        _flag("--novel", type=int, default=6, help="number of novel clients"),
    ),
    "table1": (_SEED,),
    "sweep": (_EXP,) + _GRID + (
        _flag("--scheduler", default="serial", choices=available_backends(),
              help="experiment-level execution backend; cell results are "
                   "identical across schedulers (default: serial)"),
        _flag("--jobs", type=int, default=None, minimum=1,
              help="concurrent cells for parallel schedulers (default: all "
                   "cores)"),
        _CLIENT_BATCH.helped(
            "cohort-vectorized client execution inside each cell: omit for "
            "auto, 1 to disable, K>=2 to cap cohort size; store bytes are "
            "identical either way"),
        _flag("--max-cells", type=int, default=None, minimum=0,
              help="execute at most N pending cells this pass (budgeted/smoke "
                   "runs); the rest defer"),
        _flag("--round-checkpoints", action="store_true",
              help="checkpoint in-flight cells per round under "
                   "<runs-dir>/checkpoints/; a killed sweep resumes mid-cell "
                   "from the last finished round instead of restarting the "
                   "cell"),
        _CHECKPOINT_EVERY.helped(
            "with --round-checkpoints: checkpoint after every K-th round "
            "(default: 1)"),
        _flag("--no-telemetry", action="store_true",
              help="skip the per-cell telemetry/<hash>.jsonl span sidecars "
                   "(store records are byte-identical either way)"),
        _flag("--trace-out", default=None, metavar="PATH",
              help="after the sweep, combine the store's telemetry sidecars "
                   "into one Chrome trace-event JSON (one process row per "
                   "cell; open in Perfetto)"),
        _flag("--quiet", action="store_true",
              help="suppress per-cell progress lines"),
    ),
    "report": (_EXP,) + _GRID + (
        _flag("--csv", action="store_true",
              help="also print the CSV series (fig3/fig4)"),
        _flag("--across-seeds", action="store_true",
              help="collapse the seed axis into mean ± std rows instead of "
                   "printing one table per seed"),
        _flag("--timings", action="store_true",
              help="also print per-cell wall-clock (and mean per-round time) "
                   "recorded in the store's index.jsonl"),
    ),
    "figures": (
        _flag("figure", choices=FIGURE_CHOICES,
              help="which paper figure to render"),
    ) + _GRID + (
        _flag("--seed", type=int, default=None,
              help="which seed's records to render (default: the grid's "
                   "single seed; required when --seeds lists several)"),
        _flag("--out", default=None, metavar="PATH",
              help="output SVG path (default: <figure>.svg, fig3/fig4: "
                   "<figure>-panel<P>.svg)"),
    ),
    "profile": (
        _flag("store", metavar="DIR",
              help="run-store directory (the --runs-dir of a sweep run with "
                   "telemetry on)"),
        _flag("--top", type=int, default=0, metavar="N", minimum=0,
              help="show only the N busiest workers per cell (default: "
                   "all)"),
    ),
}


def _check_bounds(args) -> None:
    """Reject any flag of the parsed command that is below its minimum."""
    for flag in _COMMAND_FLAGS.get(args.command, ()):
        value = getattr(args, flag.dest)
        if flag.minimum is not None and value is not None and value < flag.minimum:
            raise _UsageError(f"{flag.options[0]} must be >= {flag.minimum}, "
                              f"got {value}")


def _config_overrides(args, flags) -> dict:
    """``FederatedConfig`` overrides from the ``flags`` that name a config
    field and were moved off their defaults.

    Empty when every such flag is at its default, so the resulting config —
    and every fingerprint derived from it — is byte-identical to one built
    from a command line without them.
    """
    overrides = {}
    for flag in flags:
        value = getattr(args, flag.dest)
        if flag.field is not None and value != flag.kwargs.get("default"):
            overrides[flag.field] = value
    if "num_clients" in overrides:
        overrides["clients_per_round"] = min(SCALED_CONFIG.clients_per_round,
                                             overrides["num_clients"])
    return overrides


def _check_methods(methods) -> None:
    unknown = [m for m in methods if m not in available_methods()]
    if unknown:
        raise _UsageError(f"unknown methods: {unknown}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Calibre reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list methods and experiment panels")
    add_check_arguments(sub.add_parser(
        "check",
        help="run the static invariant checker over the codebase",
        description="AST-check src/, benchmarks/ and examples/ against the "
                    "repo's determinism, atomicity, fingerprint, layering, "
                    "tracing and pickling contracts (docs/invariants.md). "
                    "Exit 0 means every invariant holds; 'python -m "
                    "repro.analysis' is the stdlib-only spelling."))
    sub.add_parser("run", help="run methods on one workload")
    sub.add_parser("fig3", help="regenerate one Fig. 3 panel")
    sub.add_parser("fig4", help="regenerate one Fig. 4 panel")
    sub.add_parser("table1", help="regenerate Table I")
    sub.add_parser(
        "sweep",
        help="run a paper artifact as a persistent, resumable sweep",
        description="Expand an artifact's grid into content-hashed cells, "
                    "skip the ones already in the run store, and dispatch "
                    "the rest; a killed sweep resumes instead of restarting.")
    sub.add_parser(
        "report",
        help="regenerate an artifact's tables from the run store (no retraining)",
        description="Rebuild the same grid as 'repro sweep' and render its "
                    "tables purely from stored cell records.")
    sub.add_parser(
        "figures",
        help="render a paper figure as SVG from the run store (no retraining)",
        description="Rebuild a figure's sweep grid, read its records from "
                    "the run store, and write the figure as a standalone "
                    "SVG — embedding figures (fig1/2/5-8) and the "
                    "accuracy-fairness scatters (fig3/fig4) alike.")
    sub.add_parser(
        "profile",
        help="summarize a run store's telemetry sidecars (hot phases, "
             "stragglers, counters)",
        description="Read every telemetry/<fingerprint>.jsonl sidecar under "
                    "the store and print, per cell, the time spent per "
                    "phase, client-update statistics (including straggler "
                    "spread: slowest client minus the round median), "
                    "per-worker utilization, and counter totals. Purely "
                    "read-only diagnostics.")
    for command, flags in _COMMAND_FLAGS.items():
        for flag in flags:
            sub.choices[command].add_argument(*flag.options, **flag.kwargs)
    return parser


def _command_list() -> int:
    print("methods:")
    for name in available_methods():
        print(f"  {name}")
    print("\nexecution backends:")
    for name in available_backends():
        print(f"  {name}")
    for experiment, panels in _PANELS.items():
        print(f"\n{experiment} panels:")
        for index, (dataset, label, setting) in enumerate(panels):
            print(f"  {index}: {dataset} paper:{label} scaled:{setting.label()}")
    print("\nsweep experiments (repro sweep/report --exp ...):")
    for name in SWEEP_EXPERIMENTS:
        print(f"  {name}")
    print("\nrenderable figures (repro figures ...):")
    for name in FIGURE_CHOICES:
        print(f"  {name}")
    return 0


def _command_run(args) -> int:
    _check_methods(args.method)
    if args.resume and not args.checkpoints:
        raise _UsageError("--resume requires --checkpoints DIR")
    try:
        config = SCALED_CONFIG.with_overrides(
            shared_memory={"auto": None, "on": True, "off": False}[args.shared_memory],
            **_config_overrides(args, _COMMAND_FLAGS["run"]),
        )
        spec = scaled_spec(
            args.dataset,
            NonIIDSetting(args.setting, args.param, args.samples),
            args.method,
            seed=args.seed,
            config=config,
            name=f"{args.dataset} {args.setting}({args.param}, {args.samples})",
        )
    except ValueError as error:
        raise _UsageError(error) from error
    # With --trace-out, an ambient tracer spans the entire run: every
    # method's session, worker fragments included, lands on one timeline.
    tracer = Tracer() if args.trace_out else None
    try:
        with tracer.activate() if tracer is not None else nullcontext():
            outcome = run_experiment(spec, verbose=True,
                                     checkpoint_dir=args.checkpoints,
                                     resume=args.resume,
                                     checkpoint_every=args.checkpoint_every)
    except ValueError as error:
        if not args.resume:
            raise
        # A stale checkpoint from different settings must fail loudly but
        # cleanly: the session refuses the restore by context fingerprint.
        print(f"resume failed: {error}", file=sys.stderr)
        return 1
    print()
    print(format_comparison_table(outcome, title=spec.name))
    if args.csv:
        print()
        print(format_series_csv(outcome))
    if args.out:
        path = save_outcome(outcome, args.out, numerics=numeric_environment())
        print(f"\nwrote {path}")
    if tracer is not None:
        payload = chrome_trace(tracer, process_name=spec.name)
        path = atomic_write_text(args.trace_out,
                                 json.dumps(payload, sort_keys=True))
        print(f"wrote trace {path} ({len(payload['traceEvents'])} events; "
              "open in https://ui.perfetto.dev)")
    return 0


def _build_sweep(args, experiment: Optional[str] = None):
    """Build the (deterministic) sweep grid described by CLI flags."""
    experiment = experiment if experiment is not None else args.exp
    _check_methods(args.methods or ())
    try:
        overrides = _config_overrides(args, _GRID_FLAGS)
        config = SCALED_CONFIG.with_overrides(**overrides) if overrides else None
        if experiment in EMBEDDING_FIGURES:
            return embeddings_sweep(
                experiment, methods=args.methods or None, seeds=args.seeds,
                config=config, samples_per_client=args.samples,
                embed_clients=args.embed_clients,
                embed_samples=args.embed_samples,
                tsne_iterations=args.tsne_iterations,
            )
        if experiment == "table1":
            setting = TABLE1_SETTING
            if args.samples is not None:
                setting = replace(setting, samples_per_client=args.samples)
            return table1_sweep(variants=args.methods or TABLE1_VARIANTS,
                                seeds=args.seeds, setting=setting, config=config)
        try:
            if experiment == "fig3":
                return fig3_sweep(args.panel, methods=args.methods,
                                  seeds=args.seeds, config=config,
                                  samples_per_client=args.samples)
            return fig4_sweep(args.panel, methods=args.methods, seeds=args.seeds,
                              num_novel_clients=args.novel, config=config,
                              samples_per_client=args.samples)
        except IndexError as error:  # no such panel
            raise _UsageError(f"--panel: {error}") from error
    except ValueError as error:
        raise _UsageError(error) from error


def _grid_flags(args) -> str:
    """Echo the grid-defining flags so a hinted ``repro report`` command
    rebuilds exactly the swept grid (fingerprints must match the store)."""
    parts = [f"--exp {args.exp}", f"--runs-dir {args.runs_dir}"]
    if args.exp in _PANELS:
        parts.append(f"--panel {args.panel}")
    for flag in _GRID_FLAGS:
        value = getattr(args, flag.dest)
        if args.exp in flag.grids and value not in (flag.kwargs.get("default"), []):
            values = value if isinstance(value, list) else [value]
            parts.append(" ".join([flag.options[0], *map(str, values)]))
    return " ".join(parts)


def _command_sweep(args) -> int:
    sweep = _build_sweep(args)
    store = RunStore(args.runs_dir)
    executor = (execute_embedding_cell if args.exp in EMBEDDING_FIGURES
                else None)
    summary = run_sweep(sweep, store=store, backend=args.scheduler,
                        workers=args.jobs, max_cells=args.max_cells,
                        client_batch=args.client_batch,
                        round_checkpoints=args.round_checkpoints,
                        checkpoint_every=args.checkpoint_every,
                        executor=executor,
                        telemetry=not args.no_telemetry,
                        verbose=not args.quiet)
    print(summary.describe())
    print(f"store: {store.root} ({len(store)} cells)")
    if args.trace_out:
        cells = load_store_telemetry(str(store.root))
        if not cells:
            print("no telemetry sidecars to combine (swept with "
                  "--no-telemetry, or nothing executed yet)", file=sys.stderr)
        else:
            labeled = [(f"{fingerprint[:12]} "
                        f"{cell.meta.get('label', '')}".strip(), cell)
                       for fingerprint, cell in cells]
            payload = chrome_trace_from_cells(labeled)
            path = atomic_write_text(args.trace_out,
                                     json.dumps(payload, sort_keys=True))
            print(f"wrote trace {path} ({len(cells)} cells; open in "
                  "https://ui.perfetto.dev)")
    if summary.complete:
        flags = _grid_flags(args)
        print(f"complete — regenerate tables anytime with: repro report {flags}")
        if args.exp in EMBEDDING_FIGURES:
            print(f"render the figure with: repro figures {args.exp} "
                  + flags.replace(f"--exp {args.exp} ", ""))
    return 0


def _report_title(base: str, seed: int, many_seeds: bool) -> str:
    return f"{base} [seed {seed}]" if many_seeds else base


def _panel_name(experiment: str, panel: int) -> str:
    dataset, paper_label, _setting = _PANELS[experiment][panel]
    return f"{experiment}-panel{panel} {dataset} paper:{paper_label}"


def _open_store(root: str) -> Optional[RunStore]:
    """The existing run store at ``root``, or None after saying why not."""
    try:
        return RunStore(root, create=False)
    except FileNotFoundError as error:
        print(error, file=sys.stderr)
        return None


def _missing_cells(store: RunStore, cells, next_step: str) -> bool:
    """List on stderr the ``cells`` the store lacks; True if there are any."""
    missing = store.missing(cells)
    if missing:
        print(f"{len(missing)} of {len(cells)} cells missing from {store.root}; "
              f"{next_step}:", file=sys.stderr)
        for key in missing[:10]:
            print(f"  {key.fingerprint}  {key.label()}", file=sys.stderr)
        if len(missing) > 10:
            print(f"  ... and {len(missing) - 10} more", file=sys.stderr)
    return bool(missing)


def _print_timings(store: RunStore, cells) -> None:
    """Render the per-cell wall-clock block (``repro report --timings``).

    Timings are index-only diagnostics: cells swept before timing existed
    (or re-indexed from records alone) simply have none recorded.
    """
    timings = store.timings()
    print("cell timings (from index.jsonl):")
    totals = []
    rows_missing = 0
    rows_resumed = 0
    for key in cells:
        timing = timings.get(key.fingerprint)
        if timing is None:
            rows_missing += 1
            continue
        wall = timing.get("wall_clock_s")
        if wall is None:
            # A resumed cell carries the marker instead of numbers: its
            # elapsed covered only the recomputed tail of the run.
            if timing.get("resumed"):
                rows_resumed += 1
                print(f"  {key.fingerprint}   (resumed)            "
                      f"{key.label()}")
            else:
                rows_missing += 1
            continue
        per_round = timing.get("mean_round_s")
        totals.append(wall)
        per_round_text = f" ({per_round:8.3f}s/round)" if per_round else ""
        print(f"  {key.fingerprint}  {wall:9.3f}s{per_round_text}  "
              f"{key.label()}")
    if totals:
        print(f"  total {sum(totals):.3f}s over {len(totals)} cells, "
              f"mean {sum(totals) / len(totals):.3f}s/cell")
    if rows_resumed:
        print(f"  ({rows_resumed} cell(s) finished from a mid-cell "
              "checkpoint: no comparable wall clock)")
    if rows_missing:
        print(f"  ({rows_missing} cell(s) have no recorded timing)")


UNSTAMPED = "unstamped (computed before BLAS pinning)"


def _warn_mixed_numerics(store: RunStore, cells) -> None:
    """One stderr line when the rendered cells do not all carry one stamp.

    A cell's numbers depend on the BLAS thread count it was computed
    with; cells from different numeric environments, or from before the
    program pinned BLAS, may not be comparable (docs/invariants.md,
    "Numeric environment").  Stdout is untouched.
    """
    stamps = store.numerics()
    counts = Counter(
        json.dumps(stamps[fingerprint], sort_keys=True)
        if fingerprint in stamps else UNSTAMPED
        for fingerprint in {key.fingerprint for key in cells})
    if len(counts) > 1 or UNSTAMPED in counts:
        groups = "; ".join(f"{count} cell(s) {label}"
                           for label, count in sorted(counts.items()))
        print("warning: rendered cells are not all from one stamped numeric "
              f"environment: {groups}", file=sys.stderr)


def _across_seeds_pairs(cells, records, novel: bool = False):
    """method → per-seed (mean, variance) pairs, in the grid's seed order."""
    per_method = {}
    report_key = "novel_report" if novel else "report"
    for key, record in zip(cells, records):
        report = record.get(report_key)
        if report is None:
            continue
        per_method.setdefault(key.method, []).append(
            (report["mean"], report["variance"]))
    return per_method


def _silhouette_pairs(cells, records):
    """method → per-seed (tsne, feature) silhouettes, in grid seed order."""
    per_method = {}
    for key, record in zip(cells, records):
        embedding = record.get("embedding")
        if embedding is None:
            continue
        per_method.setdefault(key.method, []).append(
            (embedding["silhouette"], embedding["feature_silhouette"]))
    return per_method


def _report_across_seeds(args, cells, records) -> None:
    seeds_label = f"[across seeds {' '.join(str(s) for s in args.seeds)}]"
    if args.exp in EMBEDDING_FIGURES:
        print(format_silhouette_across_seeds(
            _silhouette_pairs(cells, records),
            title=f"{args.exp} silhouettes {seeds_label}"))
        return
    if args.exp == "table1":
        rows = table1_rows_across_seeds(
            cells, records, variants=args.methods or TABLE1_VARIANTS,
            seeds=args.seeds)
        print(format_ablation_table(rows, title=f"Table I {seeds_label}"))
        return
    name = _panel_name(args.exp, args.panel)
    print(format_across_seeds_table(_across_seeds_pairs(cells, records),
                                    title=f"{name} {seeds_label}"))
    novel_pairs = _across_seeds_pairs(cells, records, novel=True)
    if novel_pairs:
        print()
        print(format_across_seeds_table(
            novel_pairs, title=f"{name} [novel] {seeds_label}"))


def _report_per_seed(args, sweep, store: RunStore, cells, records) -> None:
    many_seeds = len(args.seeds) > 1
    for index, seed in enumerate(args.seeds):
        if index:
            print()
        if args.exp in EMBEDDING_FIGURES:
            results = figure_results_from_records(
                cells, records, methods=args.methods or None, seed=seed,
                store=store)
            print(format_silhouette_table(
                results, title=_report_title(f"{args.exp} silhouettes",
                                             seed, many_seeds)))
            continue
        if args.exp == "table1":
            rows = table1_rows_from_records(
                cells, records, variants=args.methods or TABLE1_VARIANTS, seed=seed)
            print(format_ablation_table(
                rows, title=_report_title("Table I", seed, many_seeds)))
            continue
        spec = sweep.to_experiment_spec(
            seed=seed, name=_panel_name(args.exp, args.panel))
        seed_records = [record for key, record in zip(cells, records)
                        if key.seed == seed]
        outcome = outcome_from_records(spec, seed_records)
        print(format_comparison_table(
            outcome, title=_report_title(spec.name, seed, many_seeds)))
        if outcome.novel_reports:
            print(format_comparison_table(
                outcome, novel=True,
                title=_report_title(spec.name + " [novel]", seed, many_seeds)))
        if args.csv:
            print(format_series_csv(outcome))


def _command_report(args) -> int:
    sweep = _build_sweep(args)
    cells = sweep.cells()
    store = _open_store(args.runs_dir)
    if store is None or _missing_cells(store, cells, "finish the sweep first"):
        return 1
    records = store.load_records(cells)
    _warn_mixed_numerics(store, cells)
    if args.across_seeds:
        _report_across_seeds(args, cells, records)
    else:
        _report_per_seed(args, sweep, store, cells, records)
    if args.timings:
        print()
        _print_timings(store, cells)
    return 0


def _command_figures(args) -> int:
    """Render one paper figure from the run store alone (no retraining)."""
    # 'figures' renders one seed of the grid. The grid axis (--seeds) must
    # match what was swept, so never rewrite it silently from --seed.
    if args.seed is None:
        if len(args.seeds) > 1:
            raise _UsageError(f"--seeds lists {args.seeds}; pick one to render "
                              "with --seed N")
        args.seed = args.seeds[0]
    elif args.seed not in args.seeds:
        if args.seeds != [0]:
            raise _UsageError(f"--seed {args.seed} is not in the swept grid's "
                              f"--seeds {args.seeds}")
        # --seeds was left at its default; follow --seed.
        args.seeds = [args.seed]
    sweep = _build_sweep(args, experiment=args.figure)
    cells = [key for key in sweep.cells() if key.seed == args.seed]
    store = _open_store(args.runs_dir)
    if store is None or _missing_cells(
            store, cells, f"run the sweep first (repro sweep --exp {args.figure} ...)"):
        return 1
    records = store.load_records(cells)
    if args.figure in EMBEDDING_FIGURES:
        results = figure_results_from_records(
            cells, records, methods=args.methods or None, seed=args.seed,
            store=store)
        svg = render_figure_svg(args.figure, results)
        print(format_silhouette_table(results, title=f"{args.figure} silhouettes"))
        default_out = f"{args.figure}.svg"
    else:
        name = _panel_name(args.figure, args.panel)
        spec = sweep.to_experiment_spec(seed=args.seed, name=name)
        outcome = outcome_from_records(spec, records)
        svg = render_series_svg(outcome, title=name)
        default_out = f"{args.figure}-panel{args.panel}.svg"
    path = atomic_write_text(args.out or default_out, svg)
    print(f"wrote {path}")
    return 0


def _command_profile(args) -> int:
    store = _open_store(args.store)
    if store is None:
        return 1
    cells = load_store_telemetry(str(store.root))
    if not cells:
        print(f"no telemetry sidecars under {store.telemetry_dir} "
              "(sweep with telemetry on — the default — to produce them)",
              file=sys.stderr)
        return 1
    print(render_profile(cells, top=args.top), end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    # One BLAS thread, always: the thread count changes summation order,
    # and a cell's result must be a function of its config alone.
    pin_blas_threads()
    args = build_parser().parse_args(argv)
    try:
        _check_bounds(args)
        return _dispatch(args)
    except _UsageError as error:
        print(error, file=sys.stderr)
        return 2
    except CorruptRecord as error:
        print(f"{error}; delete it and re-run `repro sweep`", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "list":
        return _command_list()
    if args.command == "check":
        return run_check_command(args)
    if args.command == "run":
        return _command_run(args)
    if args.command == "fig3":
        run_fig3_panel(args.panel, methods=args.methods or None, seed=args.seed,
                       verbose=True)
        return 0
    if args.command == "fig4":
        run_fig4_panel(args.panel, seed=args.seed, num_novel_clients=args.novel,
                       verbose=True)
        return 0
    if args.command == "table1":
        rows = run_table1(seed=args.seed)
        print(format_ablation_table(rows))
        return 0
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "report":
        return _command_report(args)
    if args.command == "figures":
        return _command_figures(args)
    if args.command == "profile":
        return _command_profile(args)
    return 2  # unreachable given required=True


if __name__ == "__main__":
    sys.exit(main())
