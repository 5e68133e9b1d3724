"""Tests of the benchmark itself: job lists, metric names, checks, tracing.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import re

import pytest

import jobs
import run
import spans
from jobs import image_job, reduce_job, render_job, verify_job, walk_job

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def small_jobs():
    return [
        image_job(7, (1, 2, 5), "img.csv", "small image"),
        render_job(7, (1, 2, 5), 4, 10, "img.png", "small render"),
        verify_job("conjugate", 4, 2, "small sweep"),
        verify_job("spikes", 5, 3, "small sweep"),
        verify_job("full-union", 5, 2, "small union"),
        reduce_job(7, (1, 2, 4), 7, "grid.csv", "small reduce"),
        walk_job(12, 2, 4, "small walk"),
    ]


def measure(tmp_path, job_list, trace=False):
    return run.measure(job_list, seed=1, seconds=0, trace=trace, workdir=str(tmp_path))


def failed(m):
    return [run_ for run_ in m["runs"] if run_[5]]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_job_list(workload):
    assert jobs.job_list(workload, 7) == jobs.job_list(workload, 7)
    assert len({tuple(j.key for j in jobs.job_list(workload, s)) for s in range(5)}) > 1


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    assert declared == run.END_TO_END
    layer = {k: v[:2] for k, v in spans.LAYER_METRICS.items()}
    layer.update(spans.RUN_METRICS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == layer
    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)
    for name in list(declared) + list(layer) + list(jobs.WORKLOADS):
        assert NAME.match(name), name


def test_small_jobs_pass_their_checks(tmp_path):
    m = measure(tmp_path, small_jobs())
    assert not failed(m), failed(m)
    assert len(m["runs"]) == len(small_jobs())


def test_dropped_image_point_is_a_failure(tmp_path, monkeypatch):
    import symchar.render

    export = symchar.render.export_points
    monkeypatch.setattr(symchar.render, "export_points", lambda values, fmt="csv": export(values[1:], fmt))
    m = measure(tmp_path, [image_job(7, (1, 2, 5), "img.csv", "")])
    assert len(failed(m)) == 1


def test_missing_verify_record_is_a_failure(tmp_path, monkeypatch):
    import symchar.identities

    sweep = symchar.identities.sweep_conjugate
    monkeypatch.setattr(symchar.identities, "sweep_conjugate", lambda n, d: list(sweep(n, d))[1:])
    m = measure(tmp_path, [verify_job("conjugate", 4, 2, ""), verify_job("constancy", 4, 2, "")])
    assert [r[1] for r in failed(m)] == [0]


def test_blank_pixel_is_a_failure(tmp_path, monkeypatch):
    import symchar.render

    encode = symchar.render.encode_png

    def blank(img):
        return encode(symchar.render.GrayImage(img.spec, img.pixels * 0 + 1.0))

    monkeypatch.setattr(symchar.render, "encode_png", blank)
    m = measure(tmp_path, [render_job(7, (1, 2, 5), 4, 10, "img.png", "")])
    assert len(failed(m)) == 1


def test_traced_run_attributes_all_time(tmp_path):
    m = measure(tmp_path, small_jobs(), trace=True)
    assert not failed(m)
    metrics = run.layer_metrics(m)
    assert set(spans.LAYER_METRICS) <= set(metrics)
    assert metrics["evaluate.dot_counts_calls"] > 0 and metrics["render.points_stamped"] > 0
    assert metrics["asymptotic.torus_points"] == 7**2
    assert metrics["trace.attributed_frac"] == pytest.approx(1.0, abs=0.02)
    selfs = spans.self_times(m["tracer"].spans)
    assert min(selfs.values()) > -1e-3


def test_missing_wrapped_name_drops_only_its_metric(tmp_path, monkeypatch):
    import symchar.asymptotic

    monkeypatch.delattr(symchar.asymptotic, "sample_torus_map")  # as if a refactor removed it
    m = measure(tmp_path, [verify_job("conjugate", 4, 2, "")], trace=True)
    metrics = run.layer_metrics(m)
    assert "asymptotic.torus_s" not in metrics and "asymptotic.torus_points" not in metrics
    assert metrics["evaluate.dot_counts_calls"] == 3 * 10 * 10
    assert not failed(m)


def test_peak_rss_is_the_jobs_own(tmp_path):
    import numpy as np

    ballast = np.ones(40_000_000)  # 305 MiB resident in this process only
    (rc, mb), = run.measure_peak_rss([verify_job("conjugate", 4, 2, "")], str(tmp_path))
    assert rc == 0 and 10 < mb < 200, mb
    del ballast
