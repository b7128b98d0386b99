import csv
import io

import numpy as np
import pytest

from hydrocast.catalog import REFERENCE_POINTS, IndexPoint
from hydrocast.errors import EmptyReport, LengthMismatch, NonFiniteInput, ZeroVariance
from hydrocast.evaluation import (
    CSV_FORMAT,
    CSV_HEADER,
    JSON_FORMAT,
    TEXT_TABLE,
    EvalResult,
    EvaluationReport,
    error_std,
    mae,
    pearson,
    render_report,
)

from oracles import error_std_direct, mae_direct, pearson_direct


# --- metric identities ---

def test_pearson_identity_and_negation():
    assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_value():
    assert pearson([2.0, 4.0, 6.0, 8.0], [2.0, 5.0, 5.0, 9.0]) == pytest.approx(0.94388, abs=1e-5)


def test_mae_hand_values():
    assert mae([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert mae([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]) == pytest.approx(1.0)
    assert mae([5.0], [7.0]) == pytest.approx(2.0)


def test_error_std_hand_values():
    assert error_std([1.0, 2.0], [1.0, 2.0]) == 0.0
    # absolute errors 1, 0, 2: mean 1, sum of squared deviations 2, sqrt(2/2) = 1
    assert error_std([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]) == pytest.approx(1.0)
    assert error_std([0.0, 1.0, 2.0], [3.0, 4.0, 5.0]) == 0.0  # constant abs errors


def test_metrics_match_direct_reimplementation():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 200))
        a = rng.standard_normal(n)
        p = a * rng.uniform(0.5, 2.0) + rng.standard_normal(n) * 0.5
        al, pl = a.tolist(), p.tolist()
        assert pearson(a, p) == pytest.approx(pearson_direct(al, pl), abs=1e-9)
        assert mae(a, p) == pytest.approx(mae_direct(al, pl), abs=1e-9)
        assert error_std(a, p) == pytest.approx(error_std_direct(al, pl), abs=1e-9)


def test_pearson_affine_invariance_and_sign_flip():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(50)
    b = a + rng.standard_normal(50) * 0.3
    base = pearson(a, b)
    for alpha, beta in [(2.0, 5.0), (0.1, -3.0)]:
        assert pearson(a, alpha * b + beta) == pytest.approx(base, abs=1e-9)
        assert pearson(a, -alpha * b + beta) == pytest.approx(-base, abs=1e-9)


def test_mae_triangle_inequality():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        a, b, c = rng.standard_normal((3, n))
        assert mae(a, c) <= mae(a, b) + mae(b, c) + 1e-12


def test_error_std_zero_iff_constant_errors():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(30)
    assert error_std(a, a + 2.5) == 0.0
    p = a.copy()
    p[0] += 1.0
    assert error_std(a, p) > 0.0


def test_metric_errors():
    with pytest.raises(LengthMismatch):
        pearson([1.0, 2.0], [1.0])
    with pytest.raises(LengthMismatch):
        mae([1.0], [])
    with pytest.raises(LengthMismatch):
        error_std([1.0], [1.0])  # needs length >= 2
    with pytest.raises(ZeroVariance):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ZeroVariance):
        pearson([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])


@pytest.mark.parametrize("metric", [pearson, mae, error_std])
def test_metrics_refuse_non_finite_values(metric):
    with pytest.raises(NonFiniteInput):
        metric([1.0, 2.0, 3.0], [1.0, np.nan, 3.0])
    with pytest.raises(NonFiniteInput):
        metric([1.0, np.inf, 3.0], [1.0, 2.0, 3.0])


def test_pearson_clamped_against_rounding():
    a = np.array([1e15, 2e15, 3e15, 4e15])
    assert abs(pearson(a, a * 3.0 + 7.0)) <= 1.0


# --- report assembly ---

def make_row(point, kind, rho, mu=1.0, sd=0.5):
    return EvalResult(point, kind, rho, mu, sd, n_test=10)


def test_best_model_is_argmax_rho():
    point = REFERENCE_POINTS[0]
    rows = [
        make_row(point, "rf", 0.89), make_row(point, "knn", 0.87),
        make_row(point, "svr", 0.47), make_row(point, "lr", 0.88),
        make_row(point, "mlp", 0.91),
    ]
    report = EvaluationReport(rows)
    assert report.best_per_point[point.label] == "mlp"
    assert sum(report.is_best(r) for r in report.rows) == 1


def test_best_tie_breaks_on_mae_then_kind_order():
    point = REFERENCE_POINTS[1]
    rows = [
        make_row(point, "rf", 0.9, mu=2.0),
        make_row(point, "lr", 0.9, mu=1.0),
        make_row(point, "svr", 0.5, mu=0.1),
    ]
    assert EvaluationReport(rows).best_per_point[point.label] == "lr"
    rows = [
        make_row(point, "knn", 0.9, mu=1.0),
        make_row(point, "rf", 0.9, mu=1.0),
    ]
    # full tie: fixed kind order puts rf first
    assert EvaluationReport(rows).best_per_point[point.label] == "rf"


def test_rows_ordered_by_point_then_fixed_kind_order():
    p1, p2 = REFERENCE_POINTS[0], REFERENCE_POINTS[1]
    rows = [
        make_row(p2, "mlp", 0.2), make_row(p1, "lr", 0.3),
        make_row(p2, "rf", 0.4), make_row(p1, "svr", 0.1),
    ]
    report = EvaluationReport(rows)
    assert [(r.point.label, r.model_kind) for r in report.rows] == [
        (p2.label, "rf"), (p2.label, "mlp"), (p1.label, "svr"), (p1.label, "lr"),
    ]


def test_csv_round_trip():
    point = IndexPoint(30.0, 70.0, 721.5)
    rows = [
        make_row(point, "rf", 0.881234567891234, mu=8.46, sd=7.97),
        make_row(point, "knn", 0.87, mu=6.73, sd=8.63),
    ]
    report = EvaluationReport(rows)
    text = render_report(report, CSV_FORMAT)
    header, *records = csv.reader(io.StringIO(text))
    assert tuple(header) == CSV_HEADER
    assert len(records) == len(report.rows)
    for orig, back in zip(report.rows, records):
        assert float(back[4]) == pytest.approx(orig.rho, abs=1e-9)
        assert float(back[5]) == pytest.approx(orig.mae, abs=1e-9)
        assert float(back[6]) == pytest.approx(orig.std, abs=1e-9)
        assert back[3] == orig.model_kind
        assert float(back[0]) == orig.point.lon
        assert back[7] == ("true" if report.is_best(orig) else "false")


def test_render_five_model_block():
    point = REFERENCE_POINTS[0]
    rows = [
        make_row(point, "rf", 0.89), make_row(point, "knn", 0.87),
        make_row(point, "svr", 0.47), make_row(point, "lr", 0.88),
        make_row(point, "mlp", 0.91),
    ]
    report = EvaluationReport(rows)
    text = render_report(report, TEXT_TABLE)
    assert text.count("*") == 1
    assert len(text.strip().splitlines()) == 6  # header + five rows
    payload = render_report(report, JSON_FORMAT)
    assert '"best_per_point"' in payload
    with pytest.raises(ValueError):
        render_report(report, "yaml")


def test_empty_report_rejected():
    with pytest.raises(EmptyReport):
        EvaluationReport([])


def test_json_dict_round_trip():
    point = REFERENCE_POINTS[2]
    rows = [make_row(point, "rf", 0.7), make_row(point, "lr", 0.6)]
    report = EvaluationReport(rows)
    clone = EvaluationReport.from_dict(report.to_dict())
    assert clone.best_per_point == report.best_per_point
    assert [(r.model_kind, r.rho) for r in clone.rows] == [
        (r.model_kind, r.rho) for r in report.rows
    ]
