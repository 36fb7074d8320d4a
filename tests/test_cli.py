import copy
import hashlib
import io
import json
import os
import subprocess
import sys
from argparse import Namespace
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from motivic_cc.cli import (
    EXIT_OK, EXIT_CHECK_FAILED, EXIT_SCHEMA, EXIT_RANGE, builtin_model, main,
    model_from_doc, model_to_doc, pont_coefficients, print_report,
)
from motivic_cc import motives as mo, pontrjagin as po
from motivic_cc.lpoly import ExponentLimitError, LPoly, QQ, RING_L, RING_Y
from motivic_cc.series import TSeries
from motivic_cc.checks import PontElement, PontSeries, kind_series
from helpers import exps, ref_report, series_terms
from reports import load_bench_cases, pinned_reports


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_err(capsys, *argv):
    """Exit code and stderr of a command that must fail with a one-line error."""
    code = main(list(argv))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return code, err


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_zeta_p1_uv(capsys):
    code, doc = run_json(capsys, "zeta", "--builtin", "P1", "--order", "2", "--spec", "uv")
    assert code == EXIT_OK
    assert doc["coefficients"][2] == {"n": 2, "c": "1+uv+u^2v^2"}
    assert doc["checks"] == [{"name": "symmetric-product-route", "status": "ok"}]


def test_zeta_point_all_ones(capsys):
    code, doc = run_json(capsys, "zeta", "--builtin", "point", "--order", "5")
    assert code == EXIT_OK
    assert all(rec["c"] == "1" for rec in doc["coefficients"])


def test_zeta_p1_chi_counts_points(capsys):
    code, doc = run_json(capsys, "zeta", "--builtin", "P1", "--order", "6", "--spec", "chi")
    assert code == EXIT_OK
    assert [rec["c"] for rec in doc["coefficients"]] == [str(n + 1) for n in range(7)]


def test_exponents_dims(capsys):
    code, doc = run_json(capsys, "exponents", "--dim", "2", "--order", "3")
    assert code == EXIT_OK
    assert [rec["alpha"] for rec in doc["coefficients"]] == ["1", "L", "L^2"]
    code, doc = run_json(capsys, "exponents", "--dim", "1", "--order", "3")
    assert [rec["alpha"] for rec in doc["coefficients"]] == ["1", "0", "0"]
    code, doc = run_json(capsys, "exponents", "--dim", "3", "--order", "3")
    assert [rec["alpha"] for rec in doc["coefficients"]] == \
        ["1", "L+L^2", "L^2+L^3+L^4"]


def test_exponents_range_errors(capsys):
    for dim, order in (("3", "4"), ("7", "2"), ("5", "3")):
        code, _ = run_err(capsys, "exponents", "--dim", dim, "--order", order)
        assert code == EXIT_RANGE
    for dim in ("0", "-1"):
        code, err = run_err(capsys, "exponents", "--dim", dim, "--order", "3")
        assert code == EXIT_SCHEMA
        assert err == "error: dimension must be >= 1\n"


def test_exponents_checks_the_table_it_prints(capsys, monkeypatch):
    """The printed exponents are the table; each check compares it with a route that does not
    start from it, so a wrong surface table fails instead of agreeing with its round trip."""
    right = mo.punctual_exponents
    monkeypatch.setattr(mo, "punctual_exponents", lambda d, order: exps(
        RING_L, tuple(mo.L ** k for k in range(1, order + 1))) if d == 2 else right(d, order))
    code, doc = run_json(capsys, "exponents", "--dim", "2", "--order", "4")
    assert code == EXIT_CHECK_FAILED
    assert [rec["alpha"] for rec in doc["coefficients"]] == ["L", "L^2", "L^3", "L^4"]
    assert doc["checks"] == [{"name": f"closed-form-alpha-{k}", "status": "fail"}
                             for k in (1, 2, 3)]
    code, doc = run_json(capsys, "exponents", "--dim", "3", "--order", "3")
    assert (code, doc["checks"]) == (EXIT_OK, [{"name": "closed-form-match", "status": "ok"}])
    monkeypatch.setattr(mo, "punctual_exponents", lambda d, order: right(d, order) * 2)
    code, doc = run_json(capsys, "exponents", "--dim", "3", "--order", "3")
    assert (code, doc["checks"]) == (EXIT_CHECK_FAILED,
                                     [{"name": "closed-form-match", "status": "fail"}])


def test_exponents_series_file(tmp_path, capsys):
    # 1/(1-t): supplies its own exponents (1, 0, 0)
    doc = {"order": 3, "coeffs": [[{"lNum": 0, "c": "1"}]] * 4}
    path = tmp_path / "series.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "exponents", "--series", str(path), "--order", "3")
    assert code == EXIT_OK
    assert [rec["alpha"] for rec in rep["coefficients"]] == ["1", "0", "0"]


def test_conflicting_inputs_are_refused(tmp_path, capsys):
    """Two flags that each name the input exit 2 naming both, even when each input is valid."""
    model = tmp_path / "m.json"
    model.write_text(json.dumps(model_to_doc(builtin_model("P2"))))
    series = tmp_path / "series.json"
    series.write_text(json.dumps({"order": 1, "coeffs": [[{"lNum": 0, "c": "1"}]] * 2}))
    with_model = ("--builtin", "P1", "--model", str(model))
    for argv in (("classes", *with_model, "--kind", "sym", "--order", "1"),
                 ("zeta", *with_model, "--order", "1"),
                 ("model", *with_model),
                 ("model", "--builtin", "P1", "--model", "/nonexistent.json")):
        code, err = run_err(capsys, *argv)
        assert code == EXIT_SCHEMA and "--builtin and --model" in err, argv
    code, err = run_err(capsys, "exponents", "--dim", "2", "--series", str(series),
                        "--order", "1")
    assert code == EXIT_SCHEMA and "--dim and --series" in err


def test_classes_curve_hilb_equals_sym(capsys):
    code, hilb = run_json(capsys, "classes", "--builtin", "P1", "--dim", "1",
                          "--kind", "hilb", "--order", "4")
    assert code == EXIT_OK
    code, sym = run_json(capsys, "classes", "--builtin", "P1", "--kind", "sym", "--order", "4")
    assert code == EXIT_OK
    assert hilb["coefficients"] == sym["coefficients"]
    assert all(c["status"] == "ok" for c in hilb["checks"] + sym["checks"])


def test_classes_p2_hilb_degree_check(capsys):
    code, doc = run_json(capsys, "classes", "--builtin", "P2", "--dim", "2",
                         "--kind", "hilb", "--order", "3")
    assert code == EXIT_OK
    assert {"name": "degree-vs-cheah-route", "status": "ok"} in doc["checks"]


def test_classes_aluffi_needs_dim3(capsys):
    code, _ = run(capsys, "classes", "--builtin", "point", "--dim", "2",
                  "--kind", "aluffi", "--order", "3")
    assert code == EXIT_RANGE
    # every kind but sym and config reads punctual data, so a missing --dim is a usage error
    for kind in ("hilb", "chern", "virtual", "aluffi"):
        code, err = run_err(capsys, "classes", "--builtin", "point", "--kind", kind,
                            "--order", "3")
        assert code == EXIT_SCHEMA and err == f"error: --kind {kind} requires --dim\n"


def test_classes_hilb_range_error(capsys):
    # the same table of punctual data as `exponents`
    for builtin, dim, kind, order in (("P3", "3", "hilb", "4"), ("P1", "5", "hilb", "3"),
                                      ("P1", "5", "chern", "3"), ("P1", "4", "chern", "4")):
        code, _ = run_err(capsys, "classes", "--builtin", builtin, "--dim", dim,
                          "--kind", kind, "--order", order)
        assert code == EXIT_RANGE
    for dim in ("0", "-1"):
        for kind in ("hilb", "chern", "sym"):
            code, err = run_err(capsys, "classes", "--builtin", "P1", "--dim", dim,
                                "--kind", kind, "--order", "3")
            assert code == EXIT_SCHEMA
            assert err == "error: dimension must be >= 1\n"


def test_classes_dim_refused_where_kind_ignores_it(capsys):
    # sym and config read no punctual data, so a --dim would only be echoed in params
    for kind in ("sym", "config"):
        code, err = run_err(capsys, "classes", "--builtin", "P2", "--kind", kind, "--dim", "7",
                            "--order", "3")
        assert code == EXIT_SCHEMA
        assert "--dim" in err and f"--kind {kind}" in err
        code, doc = run_json(capsys, "classes", "--builtin", "P2", "--kind", kind, "--order", "3")
        assert code == EXIT_OK and doc["params"]["dim"] is None


def test_classes_point_aluffi_macmahon(capsys):
    code, doc = run_json(capsys, "classes", "--builtin", "point", "--dim", "3",
                         "--kind", "aluffi", "--order", "6")
    assert code == EXIT_OK
    assert {"name": "degree-vs-macmahon", "status": "ok"} in doc["checks"]
    assert "(-t)^n" in doc["params"]["convention"]


def test_classes_virtual_and_config(capsys):
    code, doc = run_json(capsys, "classes", "--builtin", "P3", "--dim", "3",
                         "--kind", "virtual", "--order", "3")
    assert code == EXIT_OK
    assert all(c["status"] == "ok" for c in doc["checks"])
    code, doc = run_json(capsys, "classes", "--builtin", "P1", "--kind", "config",
                         "--order", "4")
    assert code == EXIT_OK
    assert all(c["status"] == "ok" for c in doc["checks"])


def perturb_exponents(monkeypatch, kind, perturb):
    """Make ``po.class_exponents`` return ``perturb`` of the right exponents for ``kind``."""
    right = po.class_exponents
    monkeypatch.setattr(po, "class_exponents", lambda k, d, order: (
        perturb(right(k, d, order)) if k == kind else right(k, d, order)))


def test_config_check_catches_wrong_scalars(capsys, monkeypatch):
    """config-vs-exponentiation fails once the scalars of the series are perturbed."""
    perturb_exponents(monkeypatch, "config", lambda b: exps(
        RING_Y, b.coeffs[1:3] + (RING_Y.one,) + b.coeffs[4:]))
    code, doc = run_json(capsys, "classes", "--builtin", "P1", "--kind", "config",
                         "--order", "4")
    assert code == EXIT_CHECK_FAILED
    assert {"name": "config-vs-exponentiation", "status": "fail"} in doc["checks"]


def bump_second(b: TSeries) -> TSeries:
    """The exponents with the second one raised by one."""
    return exps(b.ring, b.coeffs[1:2] + (b.coeffs[2] + 1,) + b.coeffs[3:])


def test_aluffi_check_catches_wrong_scalars(capsys, monkeypatch):
    """sign-relation-vs-chern fails once a MacMahon exponent of the series is perturbed."""
    perturb_exponents(monkeypatch, "aluffi", bump_second)
    code, doc = run_json(capsys, "classes", "--builtin", "point", "--dim", "3",
                         "--kind", "aluffi", "--order", "4")
    assert code == EXIT_CHECK_FAILED
    assert {"name": "sign-relation-vs-chern", "status": "fail"} in doc["checks"]


def test_virtual_check_catches_wrong_scalars(capsys, monkeypatch):
    """two-route-forms fails, with a full report, once a virtual scalar is perturbed."""
    perturb_exponents(monkeypatch, "virtual", bump_second)
    code, doc = run_json(capsys, "classes", "--builtin", "P3", "--dim", "3",
                         "--kind", "virtual", "--order", "3")
    assert code == EXIT_CHECK_FAILED
    assert [rec["n"] for rec in doc["coefficients"]] == [0, 1, 2, 3]
    assert {"name": "two-route-forms", "status": "fail"} in doc["checks"]


def test_each_kind_builds_one_series(capsys, monkeypatch):
    """Every class kind makes one class_exponents call for its own kind and one exp_terms
    walk, and constructs no Pontrjagin container: the report is written from the walk, the
    scalar records and the degree references compare the exponents the series is built
    from, and no self-check rebuilds the series."""
    exponents, walks, built = [], [], []
    real_b, real = po.class_exponents, po.exp_terms
    monkeypatch.setattr(po, "class_exponents", lambda *a: exponents.append(a[0]) or real_b(*a))
    monkeypatch.setattr(po, "exp_terms", lambda *a, **kw: walks.append(1) or real(*a, **kw))
    for cls in (PontSeries, PontElement):  # every constructor ends in _of
        monkeypatch.setattr(cls, "_of", classmethod(
            lambda c, *a, real_of=cls._of.__func__: built.append(c) or real_of(c, *a)))
    counts = {}
    for kind in po.KINDS:
        exponents.clear()
        walks.clear()
        built.clear()
        dim = () if kind in ("sym", "config") else ("--dim", "3")
        code, _ = run(capsys, "classes", "--builtin", "P1", *dim, "--kind", kind, "--order", "3")
        assert code == EXIT_OK, kind
        counts[kind] = (exponents[:], len(walks), len(built))
    assert counts == {kind: ([kind], 1, 0) for kind in po.KINDS}


def test_series_file_boundary(tmp_path, capsys):
    path = tmp_path / "series.json"
    one = [{"lNum": 0, "c": "1"}]
    for doc in (
        {"order": -1, "coeffs": []},
        {"order": True, "coeffs": [one, one]},
        {"order": 1, "coeffs": [one, [{"lNum": False, "c": "1"}]]},
    ):
        path.write_text(json.dumps(doc))
        code, _ = run_err(capsys, "exponents", "--series", str(path), "--order", "1")
        assert code == EXIT_SCHEMA, doc
    path.write_text(json.dumps({"order": 1, "coeffs": [one, [{"lNum": 0, "c": "1/2"}]]}))
    code = main(["exponents", "--series", str(path), "--order", "1"])  # b_1 = 1/2
    out, err = capsys.readouterr()
    assert code == EXIT_SCHEMA and out == "" and err.count("\n") == 1
    assert err.startswith("error: series file") and "1/2" in err
    # b_1 = 1 and b_2 = -1/2: only exponents up to the requested order are checked
    path.write_text(json.dumps({"order": 2, "coeffs": [one, one, [{"lNum": 0, "c": "1/2"}]]}))
    code, doc = run_json(capsys, "exponents", "--series", str(path), "--order", "1")
    assert code == EXIT_OK and doc["coefficients"] == [{"k": 1, "alpha": "1"}]
    code, _ = run_err(capsys, "exponents", "--series", str(path), "--order", "2")
    assert code == EXIT_SCHEMA


def test_model_file_rejects_booleans(tmp_path, capsys):
    # each boolean equals the integer it replaces, so only its type is wrong
    edits = {
        "dim": lambda d: d.update(dim=True),
        "deg": lambda d: d["basis"][0].update(deg=True),
        "yNum": lambda d: d["ty_class"]["P1"][0].update(yNum=False),
        "u": lambda d: d["e_poly"][1].update(u=True),
        "v": lambda d: d["e_poly"][1].update(v=True),
        "c": lambda d: d["e_poly"][1].update(c=True),
    }
    path = tmp_path / "m.json"
    for field, edit in edits.items():
        doc = model_to_doc(builtin_model("P1"))
        edit(doc)
        path.write_text(json.dumps(doc))
        code, _ = run_err(capsys, "model", "--model", str(path))
        assert code == EXIT_SCHEMA, field


MISTYPED = {
    "basis": lambda d: d.update(basis=7),
    "e_poly": lambda d: d.update(e_poly=5),
    "ty_class": lambda d: d["ty_class"].update(P1=3),
    "zeroDegreeBasisId": lambda d: d.update(zeroDegreeBasisId=["P0"]),
}


@pytest.mark.parametrize("field", MISTYPED)
def test_model_file_rejects_mistyped_fields(field, tmp_path, capsys):
    doc = model_to_doc(builtin_model("P1"))
    MISTYPED[field](doc)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, err = run_err(capsys, "model", "--model", str(path))
    assert code == EXIT_SCHEMA and field in err


def test_series_file_rejects_non_list_coeffs(tmp_path, capsys):
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"order": 1, "coeffs": [[{"lNum": 0, "c": "1"}], 5]}))
    code, err = run_err(capsys, "exponents", "--series", str(path), "--order", "1")
    assert code == EXIT_SCHEMA and "t^1" in err


SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.text(max_size=6), inner, max_size=4), max_leaves=10)

# a valid document of each file format, and the command that reads it
FILE_FORMATS = {
    "model": (model_to_doc(builtin_model("P1")), ("model", "--model")),
    "series": ({"order": 3, "coeffs": [[{"lNum": 0, "c": "1"}], [{"lNum": 2, "c": "1"}], [],
                                       [{"lNum": -1, "c": "-3"}, {"lNum": 4, "c": "2"}]]},
               ("exponents", "--order", "3", "--series")),
}


def positions(x, path=()):
    """(path, value) for every position in a JSON document, the root included."""
    yield path, x
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, val in items:
        yield from positions(val, path + (key,))


def mutate(doc, path, delete, value):
    """``doc`` with the value at ``path`` replaced by ``value``, or deleted."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def file_documents(doc):
    """Arbitrary JSON, any position of ``doc`` replaced or deleted, or an array or
    object of ``doc`` replaced by a scalar."""
    paths = [p for p, _ in positions(doc)]
    containers = [p for p, v in positions(doc) if isinstance(v, (dict, list))]
    edits = st.tuples(st.sampled_from(paths), st.booleans(), JSON_VALUES) | \
        st.tuples(st.sampled_from(containers), st.just(False), SCALARS)
    return JSON_VALUES | edits.map(lambda e: mutate(doc, *e))


@pytest.mark.parametrize("fmt", FILE_FORMATS)
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_file_ingestion_never_tracebacks(fmt, data, tmp_path):
    """Malformed input files end in a documented exit code with no traceback."""
    valid, argv = FILE_FORMATS[fmt]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data.draw(file_documents(valid))))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([*argv, str(path)])
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_SCHEMA, EXIT_RANGE)
    assert "Traceback" not in err.getvalue()


def test_builtin_names_empty_factor(capsys):
    for name in ("Px", "P1x", "xP1"):
        code, err = run_err(capsys, "model", "--builtin", name)
        assert code == EXIT_SCHEMA
        assert "empty factor" in err


# text that JSON escapes (quotes, backslashes, control and non-ASCII characters), or that
# looks like the atom syntax
HOSTILE_TEXT = st.text(st.one_of(st.sampled_from('"\\*[]d1 \n\t\x00\x1f\x7f\xe9\u2603\U0001d538'),
                                 st.characters()), max_size=5)
CHECK_RECORDS = st.builds(
    lambda name, status, detail: dict({"name": name, "status": status},
                                      **({} if detail is None else {"detail": detail})),
    HOSTILE_TEXT, st.sampled_from(["ok", "fail", "skipped"]), st.none() | HOSTILE_TEXT)


@st.composite
def hostile_reports(draw):
    """A report of a Pontrjagin series over a ModelFile model with hostile basis ids, some
    components emptied, or of scalar-series records; hostile check records either way."""
    ids = draw(st.lists(HOSTILE_TEXT, min_size=1, max_size=3, unique=True))
    doc = {"name": draw(HOSTILE_TEXT), "dim": 1, "proper": False,
           "basis": [{"id": b, "deg": i % 2} for i, b in enumerate(ids)],
           "zeroDegreeBasisId": None,
           "ty_class": {b: [{"yNum": draw(st.integers(0, 2)),
                             "c": draw(st.sampled_from(["1", "-1", "3/2", "-2/7"]))}]
                        for b in ids},
           "e_poly": [{"u": 0, "v": 0, "c": 1}]}
    model = model_from_doc(doc)
    order = draw(st.integers(0, 3))
    if draw(st.booleans()):
        series = kind_series(model, "sym", None, order)
        empty = draw(st.sets(st.integers(0, order)))
        coefficients = PontSeries(model, series.ring, [
            {} if n in empty else el.terms for n, el in enumerate(series.components)])
    else:
        key, value = draw(st.sampled_from([("n", "c"), ("k", "alpha")]))
        coefficients = draw(st.lists(st.builds(lambda i, text: {key: i, value: text},
                                               st.integers(0, 9), HOSTILE_TEXT), max_size=3))
    params = {"model": model.name, "kind": "sym", "dim": None, ids[0]: draw(HOSTILE_TEXT)}
    return "classes", params, order, coefficients, draw(st.lists(CHECK_RECORDS, max_size=3))


@settings(max_examples=60, deadline=None)
@given(hostile_reports(), st.booleans())
def test_writer_matches_dict_tree_reference(report, pretty):
    """Both forms of every report are the bytes the dict-tree writer printed, and a
    failed check makes the exit code 1."""
    out = io.StringIO()
    command, params, order, coefficients, checks = report
    if isinstance(coefficients, PontSeries):
        coefficients = pont_coefficients(series_terms(coefficients), order, pretty)
    with redirect_stdout(out):
        code = print_report(Namespace(pretty=pretty), command, params, order, coefficients, checks)
    assert out.getvalue() == ref_report(*report, pretty)
    failed = any(chk["status"] == "fail" for chk in report[-1])
    assert code == (EXIT_CHECK_FAILED if failed else EXIT_OK)


def test_hostile_basis_ids_through_main(tmp_path, capsys):
    ids = ['a"b', "c\\d", "e\x01f", "\xe9\u2603", "d1*[x]", ""]
    doc = {"name": 'M"\\', "dim": 2, "proper": False,
           "basis": [{"id": b, "deg": i % 3} for i, b in enumerate(ids)],
           "zeroDegreeBasisId": None,
           "ty_class": {b: [{"yNum": i, "c": f"{i - 2}/3"}] for i, b in enumerate(ids)},
           "e_poly": [{"u": 0, "v": 0, "c": 1}]}
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc))
    model = model_from_doc(doc)
    series = kind_series(model, "sym", None, 3)
    params = {"model": model.name, "kind": "sym", "dim": None}
    skipped = [{"name": "degree-vs-motivic-route", "status": "skipped"}]
    for pretty in (False, True):
        code, out = run(capsys, "classes", "--model", str(path), "--kind", "sym", "--order", "3",
                        *(("--pretty",) if pretty else ()))
        assert code == EXIT_OK
        assert out == ref_report("classes", params, 3, series, skipped, pretty)
        failed = [{"name": "x", "status": "fail", "detail": 'see "d1*[a\\"b]"'}]
        text = pont_coefficients(series_terms(series), 3, pretty)
        assert print_report(Namespace(pretty=pretty), "classes", params, 3, text, failed) == \
            EXIT_CHECK_FAILED
        assert capsys.readouterr().out == ref_report("classes", params, 3, series, failed, pretty)
    # the ids read back from the JSON report as they were written into the model file
    code, out = run(capsys, "classes", "--model", str(path), "--kind", "sym", "--order", "1")
    atoms = [t["atoms"] for t in json.loads(out)["coefficients"][1]["terms"]]
    assert atoms == [[f"d1*[{b}]"] for b in sorted(model.ty)] and len(atoms) == 5


def test_model_roundtrip():
    for name in ("point", "P2", "P1xP1"):
        model = builtin_model(name)
        assert model_from_doc(model_to_doc(model)) == model



def test_model_to_doc_decodes_num_and_den(monkeypatch):
    """Documents of builtin and generated models (rational and half-exponent
    coefficients) equal the ``LPoly.terms`` reading, and are written without it."""
    gen = load_bench_cases().generate_model
    models = [builtin_model(name) for name in ("point", "P1", "P2xP2")] + \
        [model_from_doc(gen(seed)) for seed in range(8)]
    want = [({b: [{"yNum": e[0], "c": str(c)} for e, c in sorted(m.ty[b].terms.items())]
              for b, _ in m.basis if b in m.ty},
             [{"u": e[0] // 2, "v": e[1] // 2, "c": int(c)}
              for e, c in sorted(m.e_poly.terms.items())]) for m in models]

    def no_terms(self):
        raise AssertionError("LPoly.terms read")

    monkeypatch.setattr(LPoly, "terms", property(no_terms))
    for model, (ty, e_poly) in zip(models, want):
        doc = model_to_doc(model)
        assert doc["ty_class"] == ty and doc["e_poly"] == e_poly
    assert [model_to_doc(model_from_doc(gen(seed))) for seed in range(8)] == \
        [gen(seed) for seed in range(8)]

def test_model_roundtrip_via_file(tmp_path, capsys):
    code, out = run(capsys, "model", "--builtin", "P1xP2")
    assert code == EXIT_OK
    path = tmp_path / "m.json"
    path.write_text(out)
    code, doc = run_json(capsys, "classes", "--model", str(path), "--kind", "sym",
                         "--order", "2")
    assert code == EXIT_OK


REINGESTED = ("point", "P1", "P2", "P3", "P1xP1", "P1xP2")
CLASS_RUNS = [("sym",), ("config",), ("hilb", "--dim", "1"), ("hilb", "--dim", "2"),
              ("chern", "--dim", "2"), ("chern", "--dim", "3"), ("virtual", "--dim", "3"),
              ("aluffi", "--dim", "3")]


@pytest.mark.parametrize("name", REINGESTED)
def test_reingested_builtin_gets_the_same_reports(name, tmp_path, capsys):
    """``classes`` and ``zeta`` of the ``model --builtin`` document print what the builtin
    prints, motivic-route records included: each reads ``ok``, none ``skipped``."""
    code, doc = run(capsys, "model", "--builtin", name)
    assert code == EXIT_OK
    path = tmp_path / "m.json"
    path.write_text(doc)
    runs = [("classes", "--kind", *kind, "--order", "4") for kind in CLASS_RUNS]
    for argv in runs + [("zeta", "--order", "6")]:
        code, out = run(capsys, *argv, "--builtin", name)
        assert code == EXIT_OK
        assert {rec["status"] for rec in json.loads(out)["checks"]} == {"ok"}, argv
        assert run(capsys, *argv, "--model", str(path)) == (code, out), argv


# a proper genus-2 curve: e = 1 - 2u - 2v + uv, and T_{(-y)*} = (1 - y)[C] + (-1 - y)[pt]
GENUS2 = {
    "name": "C2", "dim": 1, "proper": True,
    "basis": [{"id": "C", "deg": 1}, {"id": "P0", "deg": 0}], "zeroDegreeBasisId": "P0",
    "ty_class": {"C": [{"yNum": 0, "c": "1"}, {"yNum": 2, "c": "-1"}],
                 "P0": [{"yNum": 0, "c": "-1"}, {"yNum": 2, "c": "-1"}]},
    "e_poly": [{"u": 0, "v": 0, "c": 1}, {"u": 1, "v": 0, "c": -2}, {"u": 0, "v": 1, "c": -2},
               {"u": 1, "v": 1, "c": 1}],
}
GENUS2_MOTIVIC = {("sym",): "degree-vs-motivic-route", ("config",): "degree-vs-motivic-route",
                  ("hilb", "--dim", "1"): "degree-vs-cheah-route",
                  ("virtual", "--dim", "3"): "degree-vs-motivic-route"}


def genus2_statuses(tmp_path, capsys):
    """Exit code and motivic-route status of each ``classes`` run, and the ``zeta`` record."""
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(GENUS2))
    got = []
    for kind, name in GENUS2_MOTIVIC.items():
        code, doc = run_json(capsys, "classes", "--model", str(path), "--kind", *kind,
                             "--order", "4")
        got.append((code, [rec["status"] for rec in doc["checks"] if rec["name"] == name]))
    code, doc = run_json(capsys, "zeta", "--model", str(path), "--order", "4")
    return got, (code, doc["checks"])


def test_model_file_curve_gets_the_motivic_checks(tmp_path, capsys):
    """A ModelFile with no builtin behind it is checked on the motivic route too; its e is no
    polynomial in uv, so zeta's check does not apply."""
    got, zeta = genus2_statuses(tmp_path, capsys)
    assert got == [(EXIT_OK, ["ok"])] * len(GENUS2_MOTIVIC)
    assert zeta == (EXIT_OK, [{"name": "symmetric-product-route", "status": "skipped"}])


def test_motivic_checks_catch_a_class_with_the_wrong_chi_y(tmp_path, capsys, monkeypatch):
    """Sending v to L, not 1, gives the curve's class the chi_{-y} e(y, y), and every motivic
    record fails."""
    monkeypatch.setattr(mo, "class_of_e",
                        lambda e: e.substitute(RING_L, whole={"u": mo.L, "v": mo.L}))
    got, _ = genus2_statuses(tmp_path, capsys)
    assert got == [(EXIT_CHECK_FAILED, ["fail"])] * len(GENUS2_MOTIVIC)


def test_schema_errors(tmp_path, capsys):
    code, _ = run(capsys, "classes", "--builtin", "nope", "--kind", "sym", "--order", "2")
    assert code == EXIT_SCHEMA
    path = tmp_path / "bad.json"
    path.write_text("{\"name\": \"x\"}")
    code, _ = run(capsys, "classes", "--model", str(path), "--kind", "sym", "--order", "2")
    assert code == EXIT_SCHEMA
    path.write_text("not json")
    code, _ = run(capsys, "zeta", "--model", str(path), "--order", "2")
    assert code == EXIT_SCHEMA
    path.write_text(json.dumps({"name": "neg", "dim": -1, "proper": False, "basis": [],
                                "zeroDegreeBasisId": None, "ty_class": {}, "e_poly": []}))
    code = main(["classes", "--model", str(path), "--kind", "sym", "--order", "3"])
    out, err = capsys.readouterr()
    assert code == EXIT_SCHEMA and out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and "negative dimension" in err
    # a zero-degree id must name a basis class, also on a model that is not proper
    path.write_text(json.dumps({"name": "F", "dim": 1, "proper": False,
                                "basis": [{"id": "a", "deg": 0}], "zeroDegreeBasisId": "nope",
                                "ty_class": {}, "e_poly": []}))
    for argv in (("model",), ("classes", "--kind", "sym", "--order", "2")):
        code = main([*argv, "--model", str(path)])
        out, err = capsys.readouterr()
        assert code == EXIT_SCHEMA and out == "" and err.count("\n") == 1, argv
        assert err.startswith("error: ") and "'nope'" in err
    # numbers are bounded at the boundary: exponent notation and JSON floats are
    # no rationals, and an integer past Python's 4300-digit limit does not load
    for c in ("1e5000", 0.5):
        doc = model_to_doc(builtin_model("P1"))
        doc["ty_class"]["P1"][0]["c"] = c
        path.write_text(json.dumps(doc))
        code, err = run_err(capsys, "model", "--model", str(path))
        assert code == EXIT_SCHEMA and "bad rational" in err
    huge = "1" + "0" * 5000
    path.write_text(json.dumps(model_to_doc(builtin_model("P1"))).replace(
        '"dim": 1', f'"dim": {huge}'))
    code, err = run_err(capsys, "model", "--model", str(path))
    assert code == EXIT_SCHEMA and "model file is not valid JSON" in err
    path.write_text(f'{{"order": {huge}, "coeffs": []}}')
    code, err = run_err(capsys, "exponents", "--series", str(path), "--order", "1")
    assert code == EXIT_SCHEMA and "series file is not valid JSON" in err
    # e_poly terms are summed before any exponent is packed: terms that cancel at
    # v = 2^61 load, and a malformed term after a term past that limit is a schema error
    past = {"u": 0, "v": 2 ** 61, "c": 1}
    doc = model_to_doc(builtin_model("P1"))
    for extra, want in (([past, dict(past, c=-1)], EXIT_OK),
                        ([past, dict(past, v="x")], EXIT_SCHEMA)):
        path.write_text(json.dumps(dict(doc, e_poly=doc["e_poly"] + extra)))
        code = main(["model", "--model", str(path)])
        out, err = capsys.readouterr()
        assert code == want, err
        if want == EXIT_OK:
            assert json.loads(out) == doc
        else:
            assert out == "" and err.startswith("error: bad e_poly term") and err.count("\n") == 1


def test_deeply_nested_json_is_a_schema_error(tmp_path, capsys):
    # json.load recurses once per level, so a deep array ends in RecursionError
    deep = "[" * 100000 + "]" * 100000
    model, series = tmp_path / "model.json", tmp_path / "series.json"
    model.write_text(deep)
    series.write_text(f'{{"order": 1, "coeffs": {deep}}}')
    for argv, what in ((("classes", "--kind", "sym", "--order", "2", "--model", model), "model"),
                       (("model", "--model", model), "model"),
                       (("exponents", "--order", "1", "--series", series), "series")):
        code = main([str(a) for a in argv])
        out, err = capsys.readouterr()
        assert code == EXIT_SCHEMA and out == "" and err.count("\n") == 1, argv
        assert err.startswith(f"error: {what} file is not valid JSON: maximum recursion"), err


@pytest.mark.parametrize("pretty", [(), ("--pretty",)])
def test_computed_number_past_digit_limit(pretty, tmp_path, capsys):
    # a 4001-digit coefficient loads, but its square in the Sym^2 class cannot
    # be printed: exit 3, a one-line error naming the limit, and no report
    doc = {"name": "F", "dim": 1, "proper": False,
           "basis": [{"id": "a", "deg": 0}, {"id": "b", "deg": 1}],
           "zeroDegreeBasisId": None, "ty_class": {"a": [{"yNum": 0, "c": "9" * 4001}]},
           "e_poly": [{"u": 0, "v": 0, "c": 1}]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, _ = run(capsys, "model", "--model", str(path))
    assert code == EXIT_OK
    code = main(["classes", "--model", str(path), "--kind", "sym", "--order", "2", *pretty])
    out, err = capsys.readouterr()
    assert code == EXIT_RANGE and out == ""
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("error: ") and "4300-digit limit" in err


def test_exponent_limit_exits_three(tmp_path, capsys):
    # Z(t) = sum_n v^(n*e) t^n: through t^4 the exponent of v reaches 4e, and every
    # exponent of v must stay below 2^61
    def zeta(e):
        doc = {"name": "V", "dim": 1, "proper": False, "basis": [{"id": "a", "deg": 0}],
               "zeroDegreeBasisId": None, "ty_class": {"a": [{"yNum": 0, "c": "1"}]},
               "e_poly": [{"u": 1, "v": e, "c": 1}]}
        path = tmp_path / "v.json"
        path.write_text(json.dumps(doc))
        code = main(["zeta", "--model", str(path), "--order", "4"])
        return code, capsys.readouterr()

    def v(k):
        return f"v^{k}" if k > 0 else f"v^({k})"

    for e in (2 ** 61, -2 ** 61, 2 ** 59, -2 ** 59):  # at load, or at t^4
        code, (out, err) = zeta(e)
        assert code == EXIT_RANGE and out == ""
        assert "Traceback" not in err and err.count("\n") == 1
        assert err.startswith("error: exponent limit") and "2^61" in err
    for e in (2 ** 59 - 1, 1 - 2 ** 59):  # one step inside
        code, (out, _) = zeta(e)
        assert code == EXIT_OK
        assert [c["c"] for c in json.loads(out)["coefficients"]] == \
            ["1", "u" + v(e)] + [f"u^{n}" + v(n * e) for n in range(2, 5)]



def test_zeta_check_skips_without_building_the_class(tmp_path, capsys):
    """e = u^(2^62) is no polynomial in uv, so zeta's check is skipped; it is decided from e,
    since the e of the class u -> L, v -> 1 would pass the exponent limit of v."""
    doc = {"name": "U", "dim": 0, "proper": False, "basis": [{"id": "a", "deg": 0}],
           "zeroDegreeBasisId": None, "ty_class": {"a": [{"yNum": 0, "c": "1"}]},
           "e_poly": [{"u": 2 ** 62, "v": 0, "c": 1}]}
    path = tmp_path / "u.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "zeta", "--model", str(path), "--order", "3")
    assert code == EXIT_OK
    assert out["checks"] == [{"name": "symmetric-product-route", "status": "skipped"}]
    with pytest.raises(ExponentLimitError):
        mo.spec_e(mo.class_of_e(model_from_doc(doc).e_poly))


def test_zeta_exponent_limit_follows_the_factor_coefficients(tmp_path, capsys):
    # (1 - w t)^(-a) for w = u v^(2^59) needs w^4 at t^4 unless a < 0 and |a| < 4: a factor
    # (1 - w t)^3 stops at w^3, whose exponent of v, 3 * 2^59, is inside the limit
    def zeta(c, one=2):
        doc = {"name": "V", "dim": 1, "proper": False, "basis": [{"id": "a", "deg": 0}],
               "zeroDegreeBasisId": None, "ty_class": {"a": [{"yNum": 0, "c": "1"}]},
               "e_poly": [{"u": 0, "v": 0, "c": one}, {"u": 1, "v": 2 ** 59, "c": c}]}
        path = tmp_path / "v.json"
        path.write_text(json.dumps(doc))
        code = main(["zeta", "--model", str(path), "--order", "4"])
        return code, capsys.readouterr()

    for c in (1, 7, -7, -4):
        for one in (0, 2):  # the factor alone, and multiplied into (1 - t)^(-2)
            code, (out, err) = zeta(c, one)
            assert code == EXIT_RANGE and out == ""
            assert err.startswith("error: exponent limit") and err.count("\n") == 1
    code, (out, _) = zeta(-3)  # [t^4] (1 - t)^(-2) (1 - w t)^3 = 5 - 4*3w + 3*3w^2 - 2w^3
    assert code == EXIT_OK
    assert json.loads(out)["coefficients"][4]["c"] == \
        f"5-12*uv^{2 ** 59}+9*u^2v^{2 ** 60}-2*u^3v^{3 * 2 ** 59}"

def test_inconsistent_model_rejected(tmp_path, capsys):
    model = builtin_model("P1")
    doc = model_to_doc(model)
    doc["ty_class"]["P0"] = [{"yNum": 0, "c": "2"}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _ = run(capsys, "zeta", "--model", str(path), "--order", "2")
    assert code == EXIT_SCHEMA


def test_exit_one_on_failed_internal_check(tmp_path, capsys):
    # consistent degree but a positive-degree coordinate not divisible by
    # (1-y): the Chern normalization limit has a pole, reported as exit 1
    pole = {
        "name": "pole", "dim": 1, "proper": True,
        "basis": [{"id": "a", "deg": 1}, {"id": "b", "deg": 0}],
        "zeroDegreeBasisId": "b",
        "ty_class": {"a": [{"yNum": 0, "c": "1"}],
                     "b": [{"yNum": 0, "c": "1"}, {"yNum": 2, "c": "1"}]},
        "e_poly": [{"u": 0, "v": 0, "c": 1}, {"u": 1, "v": 1, "c": 1}],
    }
    # a one-term class in degree 100,000 cannot vanish to that order at y=1;
    # the pole is found without building (1-y)^100000
    big = {
        "name": "big", "dim": 100_000, "proper": False,
        "basis": [{"id": "a", "deg": 100_000}], "zeroDegreeBasisId": None,
        "ty_class": {"a": [{"yNum": 0, "c": "1"}]},
        "e_poly": [{"u": 0, "v": 0, "c": 1}],
    }
    # c(1) = 8001 != 0 proves the pole of the 8001-term class 1 + y + ... + y^8000 in
    # degree 8000 at once; parsing sums the terms into one polynomial
    wide = {
        "name": "wide", "dim": 8_000, "proper": False,
        "basis": [{"id": "a", "deg": 8_000}], "zeroDegreeBasisId": None,
        "ty_class": {"a": [{"yNum": 2 * i, "c": "1"} for i in range(8_001)]},
        "e_poly": [{"u": 0, "v": 0, "c": 1}],
    }
    for doc, dim, order in ((pole, "1", "2"), (big, "2", "1"), (wide, "2", "1")):
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        code = main(["classes", "--model", str(path), "--dim", dim,
                     "--kind", "chern", "--order", order])
        captured = capsys.readouterr()
        assert code == EXIT_CHECK_FAILED
        assert captured.out == ""
        assert captured.err == (f"error: model {doc['name']}, basis a: "
                                "pole at y=1 after (1-y)-cancellation\n")


def test_huge_exponent_limit_is_prompt(tmp_path):
    # 1 - 2y + y^(2^39) in degree 1: its limit -(-2 + 2^39) is read off the Taylor
    # coefficients at y^(1/2) = 1; dividing by 1 - y would write 2^39 quotient terms.
    # A child process with a timeout turns such a hang into a failure
    doc = {"name": "hostile", "dim": 1, "proper": False,
           "basis": [{"id": "a", "deg": 1}, {"id": "b", "deg": 0}], "zeroDegreeBasisId": None,
           "ty_class": {"a": [{"yNum": 0, "c": "1"}, {"yNum": 2, "c": "-2"},
                              {"yNum": 2 ** 40, "c": "1"}]},
           "e_poly": [{"u": 0, "v": 0, "c": 1}]}
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc))

    def coefficients(kind, dim):
        out = subprocess.run([sys.executable, "-m", "motivic_cc.cli", "classes", "--model",
                              str(path), "--kind", kind, "--dim", dim, "--order", "2"],
                             capture_output=True, env=package_env(), timeout=60, check=True)
        return {tuple(t["atoms"]): t["c"] for c in json.loads(out.stdout)["coefficients"]
                for t in c["terms"]}

    chern = coefficients("chern", "2")
    assert chern[("d1*[a]",)] == str(2 - 2 ** 39) == "-549755813886"
    assert chern[("d2*[a]",)] == "-824633720829"
    assert coefficients("aluffi", "3")[("d1*[a]",)] == "549755813886"



def test_huge_homological_degree_is_refused_promptly(tmp_path):
    # a coordinate 1 in degree 10^9: every atom d{2k}*[a] carries 1/2^(10^9), a number of
    # 3 * 10^8 digits, so no report can print; only chern, with no twist, meets its pole
    doc = {"name": "huge", "dim": 10 ** 9, "proper": False,
           "basis": [{"id": "a", "deg": 10 ** 9}], "zeroDegreeBasisId": None,
           "ty_class": {"a": [{"yNum": 0, "c": "1"}]}, "e_poly": [{"u": 0, "v": 0, "c": 1}]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    for kind, code in (("hilb", EXIT_RANGE), ("sym", EXIT_RANGE), ("chern", EXIT_CHECK_FAILED)):
        dim = [] if kind == "sym" else ["--dim", "2"]
        out = subprocess.run([sys.executable, "-m", "motivic_cc.cli", "classes", "--model",
                              str(path), "--kind", kind, *dim, "--order", "2"],
                             capture_output=True, timeout=30,
                             env=dict(package_env(), PYTHONINTMAXSTRDIGITS="4300"))
        err = out.stderr.decode()
        assert (out.returncode, out.stdout) == (code, b"")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if code == EXIT_RANGE:
            assert "basis class a has degree 1000000000" in err and "4300-digit limit" in err

def test_order_cap_env(capsys, monkeypatch):
    code, _ = run(capsys, "zeta", "--builtin", "point", "--order", "13")
    assert code == EXIT_RANGE
    monkeypatch.setenv("MOTIVIC_CC_MAX_ORDER", "14")
    code, _ = run(capsys, "zeta", "--builtin", "point", "--order", "13")
    assert code == EXIT_OK
    for raw in ("-1", "x"):
        monkeypatch.setenv("MOTIVIC_CC_MAX_ORDER", raw)
        code, err = run_err(capsys, "zeta", "--builtin", "P1", "--order", "0")
        assert code == EXIT_SCHEMA and "MOTIVIC_CC_MAX_ORDER must be an integer >= 0" in err


def test_verify_catches_a_scale_of_b1_alone(capsys, monkeypatch):
    """A scalar product of ``TSeries`` that multiplies b_1 only breaks the power structure of
    every series with a nonzero higher exponent: power-structure-axioms must fail."""
    real = TSeries.__mul__

    def scale_b1(self, other):
        if isinstance(other, TSeries):
            return real(self, other)
        m = self.ring.coerce(other)
        return TSeries._of(self.ring, [c * m if n == 1 else c for n, c in enumerate(self.coeffs)])
    monkeypatch.setattr(TSeries, "__mul__", scale_b1)
    code, doc = run_json(capsys, "verify", "--suite", "lambda", "--order", "8")
    assert code == EXIT_CHECK_FAILED
    assert {c["name"]: c["status"] for c in doc["checks"]}["power-structure-axioms"] == "fail"


def test_reports_deterministic(capsys):
    _, a = run(capsys, "verify", "--suite", "motives", "--order", "4", "--seed", "9")
    _, b = run(capsys, "verify", "--suite", "motives", "--order", "4", "--seed", "9")
    assert a == b
    _, c = run(capsys, "classes", "--builtin", "P2", "--dim", "2",
               "--kind", "chern", "--order", "3")
    _, d = run(capsys, "classes", "--builtin", "P2", "--dim", "2",
               "--kind", "chern", "--order", "3")
    assert c == d


def test_verify_failure_names_its_reproduction(capsys, monkeypatch):
    """A failing check's detail ends with the command and the check that rerun it."""
    monkeypatch.setattr(mo, "macmahon_series", lambda order, chi=1: TSeries.one(QQ, order))
    for suite, name in (("motives", "macmahon-fixture"), ("all", "motives/macmahon-fixture")):
        code, doc = run_json(capsys, "verify", "--suite", suite, "--order", "4", "--seed", "9")
        assert code == EXIT_CHECK_FAILED
        failed = {c["name"]: c["detail"] for c in doc["checks"] if c["status"] == "fail"}
        assert failed[name].startswith("MacMahon prefix: ")
        assert failed[name].endswith(
            "; reproduce: motivic-cc verify --suite motives --order 4 --seed 9, "
            "check macmahon-fixture")
        assert all("detail" not in c for c in doc["checks"] if c["status"] == "ok")


def test_passing_verify_formats_no_polynomial(capsys, monkeypatch):
    """Failure details are formatted only when a check fails."""
    calls = []
    to_str = LPoly.__str__
    monkeypatch.setattr(LPoly, "__str__", lambda p: calls.append(1) or to_str(p))
    code, doc = run_json(capsys, "verify", "--suite", "lambda", "--order", "4")
    assert code == EXIT_OK and all(c["status"] == "ok" for c in doc["checks"])
    assert calls == []


def test_verify_suite_passes(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "lambda", "--order", "6", "--seed", "3")
    assert code == EXIT_OK
    assert doc["checks"] and all(c["status"] == "ok" for c in doc["checks"])


def test_no_floats_anywhere(capsys):
    for argv in (
        ("zeta", "--builtin", "P1xP1", "--order", "3", "--spec", "chi-y"),
        ("classes", "--builtin", "P2", "--dim", "2", "--kind", "hilb", "--order", "3"),
        ("classes", "--builtin", "P3", "--dim", "3", "--kind", "aluffi", "--order", "3"),
        ("exponents", "--dim", "4", "--order", "3"),
    ):
        code, doc = run_json(capsys, *argv)
        assert code == EXIT_OK

        def walk(x):
            assert not isinstance(x, float), f"float leaked: {x}"
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)
            elif isinstance(x, str) and any(ch.isdigit() for ch in x):
                assert "." not in x, f"decimal point leaked: {x}"

        walk(doc)


def package_env() -> dict:
    """The environment of a child Python that imports this very ``motivic_cc``."""
    src = str(Path(mo.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_quietly(unbuffered):
    # ``motivic-cc classes ... | head -1``: a 0.5 MB report, the reader leaves after one line.
    # Unbuffered stdout ignores a short write to a closed pipe, so a report written in one
    # piece would end with exit 0 there, cut short
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "motivic_cc.cli", "classes", "--builtin", "P2", "--dim", "2",
         "--kind", "hilb", "--order", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


@pytest.mark.parametrize("order", [0, 1])
def test_verify_passes_at_lowest_orders(capsys, order):
    code, doc = run_json(capsys, "verify", "--suite", "all", "--order", str(order))
    assert code == EXIT_OK
    assert doc["checks"] and all(c["status"] == "ok" for c in doc["checks"])


def test_stdout_independent_of_hash_seed():
    # sets and dicts iterate by hash; no report may depend on that order, and each report
    # hashes to its digest in tests/reports.json
    digests = {r.argv: r.sha256 for r in pinned_reports()}
    for argv in (["classes", "--builtin", "P1xP1", "--dim", "2", "--kind", "hilb", "--order", "5"],
                 ["verify", "--suite", "all", "--order", "5", "--seed", "3"]):
        outs = {seed: subprocess.run([sys.executable, "-m", "motivic_cc.cli", *argv],
                                     capture_output=True, env=dict(package_env(),
                                                                   PYTHONHASHSEED=seed),
                                     check=True).stdout
                for seed in ("0", "1")}
        assert outs["0"] == outs["1"] and outs["0"].startswith(b"{")
        assert hashlib.sha256(outs["0"]).hexdigest() == digests[tuple(argv)], argv


def test_cli_import_leaves_checks_unloaded():
    # only ``verify`` needs the suites and the reference routes; the import and a
    # ``classes``, a ``zeta`` and an ``exponents`` run all leave them unloaded
    script = ("import io, sys, contextlib, motivic_cc.cli as cli\n"
              "for argv in (['classes', '--builtin', 'P1', '--dim', '2', '--kind', 'hilb'],\n"
              "             ['zeta', '--builtin', 'P1'], ['exponents', '--dim', '2']):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.main(argv + ['--order', '3']) == 0, argv\n"
              "print('motivic_cc.checks' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=package_env(), check=True).stdout
    assert out == "False\n"


def test_cli_import_stays_light():
    # the value classes are plain __slots__ classes: no dataclasses, hence no inspect
    script = ("import sys, motivic_cc.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=package_env(), check=True).stdout
    assert out == "[]\n"


def test_package_import_loads_no_module():
    # every name is imported from its module: the package itself re-exports nothing
    script = "import sys, motivic_cc; print('motivic_cc.lpoly' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=package_env(), check=True).stdout
    assert out == "False\n"


def test_classes_of_every_kind_load_no_pontrjagin_container():
    # the production route writes from the walk: the container and the reference routes
    # that build it live in ``checks``, which no ``classes`` run loads
    script = ("import io, sys, contextlib, motivic_cc.cli as cli, motivic_cc.pontrjagin as po\n"
              "for kind in po.KINDS:\n"
              "    dim = [] if kind in ('sym', 'config') else ['--dim', '3']\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.main(['classes', '--builtin', 'P1', *dim, '--kind', kind,\n"
              "                         '--order', '3']) == 0, kind\n"
              "print('motivic_cc.checks' in sys.modules, sorted(\n"
              "    {'PontSeries', 'PontElement', 'collect', 'pont_degree'} & set(vars(po))))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=package_env(), check=True).stdout
    assert out == "False []\n"


def test_tracer_runs_and_counts_both_product_layers(tmp_path):
    """perfbench/tracer.py reads ``LPoly.terms`` and ``PontSeries.components[i].terms`` by
    name: a traced run must print the untraced report and count the products of both layers.
    ``classes`` writes its series from ``exp_terms``, which makes no Pontrjagin product.  The
    Euler maps are plain module functions, which the tracer re-binds and counts."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    cases = {"verify": ["verify", "--suite", "pontrjagin", "--order", "3", "--seed", "0"],
             "classes": ["classes", "--builtin", "P1", "--dim", "2", "--kind", "hilb",
                         "--order", "3"]}
    for name, argv in cases.items():
        plain = subprocess.run([sys.executable, "-m", "motivic_cc.cli", *argv],
                               capture_output=True, env=package_env(), check=True).stdout
        summary = tmp_path / f"{name}.json"
        traced = subprocess.run([sys.executable, str(tracer), str(summary),
                                 str(tmp_path / f"{name}.spans.jsonl"), name, "--", *argv],
                                capture_output=True, env=package_env())
        assert traced.returncode == 0, traced.stderr.decode()
        assert traced.stdout == plain
        assert all(c["status"] != "fail" for c in json.loads(plain)["checks"])
        traced_summary = json.loads(summary.read_text())
        extra = traced_summary["extra"]
        assert extra["lpoly.mul.term_pairs"] > 0
        if name == "verify":
            assert extra["pontrjagin.mul.multiset_pairs"] > 0
            calls = traced_summary["calls"]
            assert calls.get("lambda_power.euler_log", 0) > 0
            assert calls.get("lambda_power.euler_exp", 0) > 0
