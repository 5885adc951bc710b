"""Tests for ``tools/docs_check.py``, the docs-against-code gate.

The gate runs in CI as ``make docs-check``; these tests pin each of its
checks on small hand-made documents and run it once on the real docs, so
a drift between docs/ and the code also fails the tier-1 suite.
"""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "docs_check", ROOT / "tools" / "docs_check.py")
docs_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(docs_check)

KEY_TYPES_HEADER = ("| Module | What it models | Key types |\n"
                    "|--------|----------------|-----------|\n")


def test_repo_docs_pass(capsys):
    assert docs_check.main() == 0
    out = capsys.readouterr().out
    assert "documented constant values match" in out
    assert "references in ARCHITECTURE.md and API.md resolve" in out


def test_resolves_modules_and_their_attributes():
    assert docs_check.resolves("repro.cache")
    assert docs_check.resolves("repro.cache.PageCache")
    assert docs_check.resolves("repro.sim.hp_search.HPSearchScenario.run_coordl")
    assert docs_check.resolves("repro.store.STORE_SCHEMA_VERSION")


def test_missing_names_do_not_resolve():
    assert not docs_check.resolves("repro.no_such_module")
    assert not docs_check.resolves("repro.cache.NoSuchCache")
    assert not docs_check.resolves("repro.cache.PageCache.no_such_method")
    # A name its package does not re-export, though a submodule defines it.
    assert not docs_check.resolves("repro.datasets.CachingSampler")
    assert docs_check.resolves("repro.datasets.sampler.CachingSampler")


def test_unresolved_names_are_reported_once_per_doc_in_order():
    docs = {
        "API.md": "`repro.cache.Zeta` then `repro.cache.Alpha`, again "
                  "`repro.cache.Zeta`; `repro.cache.PageCache` is fine.",
        "ARCHITECTURE.md": "`repro.cache.Zeta` lingers here too.",
    }
    assert docs_check.unresolved_names(docs) == [
        "API.md: repro.cache.Alpha",
        "API.md: repro.cache.Zeta",
        "ARCHITECTURE.md: repro.cache.Zeta",
    ]


def test_dotted_names_are_whole_tokens():
    # A sentence-ending period is not part of the name, and ``repro``
    # inside a longer word is not a reference.
    text = "Caches live in repro.cache.PageCache. See my_repro.nothing too."
    assert docs_check.DOTTED_NAME.findall(text) == ["repro.cache.PageCache"]
    assert docs_check.unresolved_names({"API.md": text}) == []


def test_key_type_missing_from_its_row_module_is_flagged():
    architecture = KEY_TYPES_HEADER + (
        "| `repro.datasets` | datasets | `SyntheticDataset`, `CachingSampler` |\n"
        "| `repro.datasets.sampler` | orders | `CachingSampler` |\n")
    assert docs_check.key_type_mismatches(architecture) == [
        "repro.datasets: CachingSampler"]


def test_dotted_key_type_resolves_as_written():
    architecture = KEY_TYPES_HEADER + (
        "| `repro.datasets` | datasets | "
        "`repro.datasets.sampler.CachingSampler` |\n"
        "| `repro.datasets` | datasets | `repro.datasets.NoSuchSampler` |\n")
    assert docs_check.key_type_mismatches(architecture) == [
        "repro.datasets: repro.datasets.NoSuchSampler"]


def test_only_rows_of_key_types_tables_are_checked():
    architecture = (
        "| Module | Notes |\n"
        "|--------|-------|\n"
        "| `repro.cache` | `NotAType` |\n"
        "\n"
        + KEY_TYPES_HEADER +
        "| `repro.cache` | caches | `PageCache` |\n"
        "| plain prose row | caches | `NotAType` |\n"
        "\n"
        "| `repro.cache` | after the table ended | `NotAType` |\n")
    assert docs_check.key_type_mismatches(architecture) == []


def test_constant_rows_compare_literal_values():
    rows = ("| `STORE_SCHEMA_VERSION` | constant | `{}` | entry format |\n"
            "| `DEFAULT_WINDOW_S` | constant | `64 MiB` | prose, skipped |\n"
            "| `NO_SUCH_CONSTANT` | constant | `1` | nobody exports it |\n")
    current = docs_check.constant_mismatches(
        rows.format(docs_check.repro.store.STORE_SCHEMA_VERSION))
    assert current == ["NO_SUCH_CONSTANT: documented as a constant, but no "
                       "checked surface exports it"]
    stale = docs_check.constant_mismatches(rows.format("'2'"))
    assert "repro.store.STORE_SCHEMA_VERSION is 2; docs/API.md says '2'" in stale


def test_signature_keywords_must_be_parameters():
    rows = ("| `PipelineSimulator` | class | "
            "`PipelineSimulator(model, gpu, queue_depth=4, fast_path=True)` "
            "| epochs |\n"
            "| `SweepRunner.run` | function | `runner.run(points, workers=0, "
            "shards=2)`; `a == b` is no keyword | sweeps |\n"
            "| `HPSearchScenario.run_epoch` | function | "
            "`run_epoch(cache, epoch, coordinated=True)` | fine |\n"
            "| `SweepRunner.grid` | function | `grid(models, anything=1)` "
            "| takes **common |\n"
            "| `DataLoader` | class | `DataLoader(..., name=\"a\\|b\")` "
            "| escaped pipe |\n"
            "| `NoSuchRunner` | class | `NoSuchRunner(x=1)` | gone |\n")
    assert docs_check.keyword_mismatches(rows) == [
        "PipelineSimulator takes no fast_path=",
        "SweepRunner.run takes no shards=",
        "NoSuchRunner: documented as a class or function, but no checked "
        "surface exports a callable by that name"]


def _edit(doc: str, old: str, new: str):
    def apply(docs: dict) -> None:
        assert old in docs[doc], f"{old!r} no longer in docs/{doc}"
        docs[doc] = docs[doc].replace(old, new)
    return apply


#: (drift, the heading main() must print, a detail it must name).
DRIFTS = {
    "stale-reference": (
        _edit("ARCHITECTURE.md", "`PageCache`, `MinIOCache`",
              "`PageCache` (see `repro.cache.NoSuchCache`), `MinIOCache`"),
        "references in the docs that name nothing",
        "ARCHITECTURE.md: repro.cache.NoSuchCache"),
    "misplaced-key-type": (
        _edit("ARCHITECTURE.md", "`repro.datasets.sampler.CachingSampler`",
              "`CachingSampler`"),
        "key types in docs/ARCHITECTURE.md missing from their row's module",
        "repro.datasets: CachingSampler"),
    "undocumented-symbol": (
        _edit("API.md", "merge_store_traces", "merge_traces"),
        "symbols in repro.store.__all__ missing from docs/API.md",
        "merge_store_traces"),
    "undocumented-point-kind": (
        _edit("API.md", "hp-multitenant", "hp-multi-tenant"),
        "sweep-point kinds in repro.sim.POINT_KINDS missing",
        "hp-multitenant"),
    "stale-keyword": (
        _edit("API.md", "`pipeline_makespan(stage_times, queue_depth=4)`",
              "`pipeline_makespan(stage_times, queue_depth=4, kernel=\"auto\")`"),
        "keywords in docs/API.md signatures that their callable does not take",
        "pipeline_makespan takes no kernel="),
    "stale-constant": (
        _edit("API.md", "| `PROTOCOL_VERSION` | constant | `3` |",
              "| `PROTOCOL_VERSION` | constant | `2` |"),
        "documented constant values out of date",
        "PROTOCOL_VERSION is 3; docs/API.md says 2"),
}


@pytest.mark.parametrize("drift", sorted(DRIFTS))
def test_main_fails_on_docs_drift(drift, tmp_path, monkeypatch, capsys):
    edit, heading, detail = DRIFTS[drift]
    docs = {name: (ROOT / "docs" / name).read_text(encoding="utf-8")
            for name in docs_check.RESOLVED_DOCS}
    edit(docs)
    (tmp_path / "docs").mkdir()
    for name, text in docs.items():
        (tmp_path / "docs" / name).write_text(text, encoding="utf-8")
    monkeypatch.setattr(docs_check, "REPO_ROOT", tmp_path)
    assert docs_check.main() == 1
    err = capsys.readouterr().err
    assert heading in err
    assert detail in err


def test_main_fails_without_api_doc(tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "docs", tmp_path / "docs")
    (tmp_path / "docs" / "API.md").unlink()
    monkeypatch.setattr(docs_check, "REPO_ROOT", tmp_path)
    assert docs_check.main() == 1
    assert "API.md does not exist" in capsys.readouterr().err
