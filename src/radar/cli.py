"""Command-line entry point.

Exit codes: 0 success, 1 partial failure, evaluation failure or an output
that cannot be written, 2 config error. Every command runs under `_exits`,
so a failure's exit code follows from its class.
"""
from __future__ import annotations

import contextlib
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterator

import click

from .domain import encode
from .errors import ConfigError, CorruptionError, FormatError, RadarError
from .evaluation import DictionaryNormalizer, aggregate, evaluate_run, load_synonyms, load_truths
from .knowledge import KnowledgeBase
from .runner import (
    build_bundle,
    build_knowledge_base,
    build_normalizer,
    load_run_config,
    report_records,
    run_cases,
)
from .topologies import Topology

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2

# A store that cannot be loaded is refused like a bad config, before any output.
STORE_OR_CONFIG_ERRORS = (ConfigError, CorruptionError, FormatError)
# What a command reports in one line; any other exception is a bug and keeps its traceback.
REPORTED_ERRORS = (RadarError, OSError)


@contextlib.contextmanager
def _exits(prefix: str) -> Iterator[None]:
    """End a failed command by the rule: a store or config error exits 2 with
    ``config error: <message>``, any other reported error exits 1 with
    ``<prefix>: <message>``. Wraps a block, or a whole command as a decorator."""
    try:
        yield
    except STORE_OR_CONFIG_ERRORS as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except REPORTED_ERRORS as exc:
        click.echo(f"{prefix}: {exc}", err=True)
        sys.exit(EXIT_PARTIAL)


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool) -> None:
    """Retrieval-augmented diagnostic reasoning runs and evaluation."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Run config JSON.")
@click.option("--cases", "cases_path", required=True, type=click.Path(), help="Cases JSONL file.")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Output run directory.")
@click.option(
    "--topology",
    type=click.Choice([t.value for t in Topology]),
    default=None,
    help="Override the configured topology.",
)
@_exits("run failed")
def cmd_run(config_path: str, cases_path: str, out_dir: str, topology: str | None) -> None:
    """Execute the configured topology over all cases."""
    cfg = load_run_config(config_path)
    if topology:
        cfg = replace(cfg, topology=Topology(topology))
    if not os.path.isfile(cases_path):
        raise ConfigError(f"cases file {cases_path} does not exist")
    summary = run_cases(cfg, cases_path, out_dir)
    click.echo(
        f"run {summary.run_id}: {summary.n_ok}/{summary.n_cases} cases completed -> {out_dir}"
    )
    if summary.failures:
        for case_id, message in summary.failures:
            click.echo(f"  failed {case_id}: {message}", err=True)
        sys.exit(EXIT_PARTIAL)
    sys.exit(EXIT_OK)


@main.command("eval")
@click.option(
    "--run",
    "run_dirs",
    required=True,
    multiple=True,
    type=click.Path(),
    help="Run directory (repeat for aggregation).",
)
@click.option("--truth", "truth_path", required=True, type=click.Path(), help="Truth JSONL file.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Output eval.json path.")
@click.option("--config", "config_path", default=None, type=click.Path(),
              help="Run config supplying the normalizer (optional).")
@click.option("--synonyms", "synonyms_path", default=None, type=click.Path(),
              help="Synonym table for the dictionary normalizer (optional).")
@_exits("evaluation failed")
def cmd_eval(run_dirs: tuple[str, ...], truth_path: str, out_path: str,
             config_path: str | None, synonyms_path: str | None) -> None:
    """Score run outputs with the Top-1/Top-5 protocol."""
    if config_path:
        cfg = load_run_config(config_path)
        normalizer = build_normalizer(cfg)
    else:
        table = load_synonyms(synonyms_path) if synonyms_path else {}
        normalizer = DictionaryNormalizer(table)
    try:
        truths = load_truths(truth_path)
        results = []
        for run_dir in run_dirs:
            reports = [(line.case_id, line) for _, line in report_records(run_dir)]
            results.append(evaluate_run(reports, truths, normalizer, run_id=Path(run_dir).name))
    finally:  # only the scoring uses the normalizer; a provider one holds connections
        if hasattr(normalizer, "close"):
            normalizer.close()
    payload: dict = {"runs": [r.to_dict() for r in results]}
    click.echo(f"{'run':<24} {'cases':>6} {'top1':>8} {'top5':>8}")
    for r in results:
        click.echo(f"{r.run_id:<24} {r.n_cases:>6} {r.top1 * 100:>8.2f} {r.top5 * 100:>8.2f}")
    if len(results) > 1:
        agg = aggregate(results)
        payload["aggregate"] = encode(agg)
        click.echo(
            f"{'aggregate':<24} {agg.n_runs:>6} "
            f"{agg.mean_top1:>5.2f} ± {agg.std_top1:.2f} "
            f"{agg.mean_top5:>5.2f} ± {agg.std_top5:.2f}"
        )
    Path(out_path).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    sys.exit(EXIT_OK)


@main.group("kb")
def cmd_kb() -> None:
    """Knowledge-base maintenance."""


@cmd_kb.command("fetch")
@click.option("--keyword", "keywords", required=True, multiple=True, help="Keyword to ingest.")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Run config JSON.")
@_exits("fetch failed")
def kb_fetch(keywords: tuple[str, ...], config_path: str) -> None:
    """Fetch and index documents for keywords, then persist the store.

    A keyword that fails is reported, and the next one still runs.
    """
    cfg = load_run_config(config_path)
    if not cfg.kb.store_dir:
        raise ConfigError("kb fetch needs kb.store_dir in the config")
    kb = build_knowledge_base(cfg)
    bundle = build_bundle(cfg, None, kb.doc_store)
    status = EXIT_OK
    try:
        for keyword in keywords:
            try:
                outcome = kb.lookup_or_fetch(keyword, bundle.source, bundle.embedder)
            except REPORTED_ERRORS as exc:
                click.echo(f"fetch failed for {keyword!r}: {exc}", err=True)
                status = EXIT_PARTIAL
                continue
            click.echo(f"{keyword}: {outcome.hit.value}, {outcome.new_docs} new documents")
    finally:
        bundle.close()
    with _exits("save failed"):
        kb.save(cfg.kb.store_dir)
    _echo_stats(kb)
    sys.exit(status)


@cmd_kb.command("stats")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Run config JSON.")
@_exits("stats failed")
def kb_stats(config_path: str) -> None:
    """Print keyword, document, and chunk counts for the persisted store."""
    _echo_stats(build_knowledge_base(load_run_config(config_path)))
    sys.exit(EXIT_OK)


def _echo_stats(kb: KnowledgeBase) -> None:
    stats = kb.stats()
    click.echo(
        f"keywords={stats['keywords']} documents={stats['documents']} "
        f"chunks={stats['chunks']} dim={stats['dim']}"
    )


if __name__ == "__main__":
    main()
