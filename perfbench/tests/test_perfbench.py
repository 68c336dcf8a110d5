"""Tests of the benchmark's own code: generator, oracles, checks, metric names.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH)]

import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

PACKAGE = run.load_package()


@pytest.fixture(scope="module")
def records():
    return workloads.shipped_records(ROOT)


@pytest.fixture(scope="module")
def oracle_values(records):
    return {r.name: oracle.OracleFan(r).values() for r in records}


def test_generator_is_deterministic(tmp_path):
    def atlas_text(seed):
        workloads.user_atlas_validate(seed, ROOT, tmp_path)
        return (tmp_path / f"user-atlas-{seed}.txt").read_bytes()

    def queries(seed):
        return [call.argv for call in workloads.surface_queries(seed, ROOT, tmp_path).calls]

    assert atlas_text(11) == atlas_text(11) != atlas_text(12)
    assert queries(11) == queries(11) != queries(12)


def test_user_atlas_mixes_verdicts_and_paths(records):
    generated = workloads.user_atlas(5, records)
    images = [rec for rec, _ in generated if rec.name.startswith("g_")]
    verdicts = [ok for rec, ok in generated if rec.name.startswith("s_")]
    assert len(images) == len(verdicts) == len(records)
    assert 0 < sum(verdicts) < len(verdicts) / 2
    omitted = sum(rec.collections is None for rec in images)
    assert len(records) // 4 < omitted < len(records) // 2


@pytest.mark.parametrize("name", ["P4", "H1", "M5", "U8", "124"])
def test_ch2_oracle_agrees_with_program(records, oracle_values, name):
    fan = PACKAGE.atlas.record_fan(PACKAGE.atlas.shipped_database().lookup(name))
    assert set(fan.cones2) == set(oracle_values[name])
    for sigma in fan.cones2:
        assert PACKAGE.chern.ch2_dot_surface(fan, sigma) == oracle_values[name][sigma]


def test_classify_oracle_names_p4_alone(oracle_values):
    lines = oracle.classify_all_stdout(oracle_values).splitlines()
    assert lines[1] == "P4\tV(1,2)\t5/2\ttwo_fano"
    assert lines[-1] == "# two_fano 1 of 67: P4"


def test_verdict_oracle_agrees_with_program(records):
    generated = workloads.user_atlas(3, records)
    sample = [g for g in generated if g[0].name.startswith("g_")][:6]
    sample += [g for g in generated if g[0].name.startswith("s_") and g[1]][:3]
    sample += [g for g in generated if g[0].name.startswith("s_") and not g[1]][:6]
    db = PACKAGE.atlas.parse(oracle.write_atlas([rec for rec, _ in sample]))
    assert [PACKAGE.atlas.validate_record(rec).ok for rec in db] == [ok for _, ok in sample]


def test_surface_queries_pass_the_checks(tmp_path):
    workload = workloads.surface_queries(4, ROOT, tmp_path)
    for call in workload.calls[:25]:
        rc, out, err, _ = run.invoke(PACKAGE.cli, call.argv)
        assert call.check(rc, out, err) == 0


def corrupt(text: str, row: int) -> str:
    lines = text.splitlines()
    cols = lines[row].split("\t")
    cols[-1] = "false" if cols[-1] == "true" else "wrong"
    lines[row] = "\t".join(cols)
    return "\n".join(lines) + "\n"


def test_classify_check_counts_one_corrupted_row(tmp_path):
    (call,) = workloads.shipped_classify(1, ROOT, tmp_path).calls
    good = oracle.classify_all_stdout(
        {r.name: oracle.OracleFan(r).values() for r in workloads.shipped_records(ROOT)}
    )
    assert call.check(0, good, "") == 0
    assert call.check(0, corrupt(good, 5), "") == 1
    assert call.check(1, good, "") == call.items


def test_validate_check_counts_one_corrupted_row(tmp_path):
    workload = workloads.user_atlas_validate(2, ROOT, tmp_path)
    (call,) = workload.calls
    generated = workloads.user_atlas(2, workloads.shipped_records(ROOT))
    rows = ["variety\tsmooth\tcomplete\tround_trip\tfano\tok"]
    err = []
    for rec, ok in generated:
        rows.append(f"{rec.name}\t" + ("true\ttrue\ttrue\ttrue\ttrue" if ok else "true\ttrue\tfalse\tfalse\tfalse"))
        if not ok:
            err.append(f"{rec.name}: a primitive relation has nonpositive degree")
    good, errors = "\n".join(rows) + "\n", "\n".join(err) + "\n"
    assert call.check(1, good, errors) == 0
    assert call.check(1, corrupt(good, 3), errors) == 1
    assert call.check(0, good, errors) == call.items


def test_query_check_counts_a_wrong_value(tmp_path):
    call = workloads.surface_queries(3, ROOT, tmp_path).calls[0]
    rc, out, err, _ = run.invoke(PACKAGE.cli, call.argv)
    assert call.check(rc, out, err) == 0
    assert call.check(rc, out.strip() + "1\n", err) == 1
    assert call.check(1, out, err) == 1


def test_metric_names_match_and_counts_repeat(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "QUERIES_PER_PASS", 12)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.surface_queries(9, ROOT, tmp_path)
    metrics, _, attempted, failed, _ = run.end_to_end(PACKAGE, workload, 0.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    assert all(metrics[m["name"]][1] == m["unit"] for m in spec["end_to_end"])
    assert (attempted, failed) == (36, 0)

    first, *_ = run.per_layer(PACKAGE, workload)
    again, *_ = run.per_layer(PACKAGE, workload)
    assert [m["name"] for m in spec["per_layer"]] == list(first)
    assert all(first[m["name"]][1] == m["unit"] for m in spec["per_layer"])
    counts = [name for name, (_, unit) in first.items() if unit in ("count", "B")]
    assert {n: first[n] for n in counts} == {n: again[n] for n in counts}
    assert first["chern.ch2_dot_surface.calls"][0] == 12


def test_sampler_scales_by_the_probes_around_an_interval():
    with speed.Sampler() as sampler:
        time.sleep(0.3)
    assert len(sampler.times) == len(sampler.probes) >= 5
    start, end = sampler.times[2], sampler.times[3]
    near = [p for t, p in zip(sampler.times, sampler.probes) if start - speed.MARGIN <= t <= end + speed.MARGIN]
    assert sampler.scale(start, end) == pytest.approx(speed.REFERENCE_S / statistics.fmean(near))
    with pytest.raises(RuntimeError):
        sampler.scale(end + 10, end + 11)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "surface_queries", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
