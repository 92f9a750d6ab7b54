import hashlib
import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from loomfold import catalog
from loomfold.cartan import Gcm, _candidates
from loomfold.cli import _combined_exit_code, main
from loomfold.folding import validate_aut
from loomfold.polys import family_p
from loomfold.presentation import suite_window


@pytest.fixture()
def runner():
    return CliRunner()


def _json_out(result):
    return json.loads(result.output)


def test_classify_entry(runner):
    res = runner.invoke(main, ["classify", "--entry", "A1a-flip"])
    assert res.exit_code == 0
    data = _json_out(res)
    assert data["class"] == "affine"
    assert data["label"] == "A1^(1)"
    assert data["null_labels"] == [1, 1]
    assert data["schema"] == 2


def test_classify_rejects_bad_matrix(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"cartan": [[2, 1], [1, 2]]}))
    res = runner.invoke(main, ["classify", "--input", str(path)])
    assert res.exit_code == 2
    assert _json_out(res)["error"]["kind"] == "NotGcm"


def test_classify_rejects_indefinite(runner, tmp_path):
    path = tmp_path / "ind.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-5, 2]]}))
    res = runner.invoke(main, ["classify", "--input", str(path)])
    assert res.exit_code == 2
    assert _json_out(res)["error"]["kind"] == "IndefiniteType"


def test_fold_report(runner):
    res = runner.invoke(main, ["fold", "--entry", "D4-triality"])
    assert res.exit_code == 0
    data = _json_out(res)
    pair = next(p for p in data["fold"]["pairs"] if p["pair"] == [0, 1])
    assert pair["d_ij"] == 3
    assert data["fold"]["transitive"] is False


def test_fold_identity(runner):
    res = runner.invoke(main, ["fold", "--entry", "A2-id"])
    data = _json_out(res)
    assert data["fold"]["orbits"] == [[0], [1]]
    for p in data["fold"]["pairs"]:
        assert p["gamma_minus"] == [0]


def test_fold_transitive_flag(runner):
    res = runner.invoke(main, ["fold", "--entry", "A3a-rot"])
    data = _json_out(res)
    assert data["fold"]["transitive"] is True


def test_polys_latex(runner):
    res = runner.invoke(main, ["polys", "--entry", "A4-flip", "--format", "latex"])
    assert res.exit_code == 0
    assert "z+w" in res.output.replace(" ", "")
    # a locality polynomial with xi_4 coefficients
    res = runner.invoke(main, ["polys", "--entry", "A3a-rot", "--format", "latex"])
    assert res.exit_code == 0
    assert r"f_{01}(z,w) &= z^{3}+\xi_{4}z^{2}w-zw^{2}-\xi_{4}w^{3} \\" in res.output.splitlines()


def test_polys_crosscheck(runner):
    res = runner.invoke(main, ["polys", "--entry", "A5a-rot", "--crosscheck"])
    data = _json_out(res)
    assert all(p["constructions_agree"] for p in data["pairs"])


def test_polys_latex_rejects_crosscheck(runner):
    # the LaTeX table prints no closed weights, so --crosscheck would be dropped
    res = runner.invoke(main, ["polys", "--entry", "A2-flip", "--format", "latex", "--crosscheck"])
    assert _assert_rejected(res) == (
        "--crosscheck needs --format json: the LaTeX table has no closed weights"
    )


@pytest.mark.parametrize("family", ["qlimit", "p"])
def test_polys_latex_rejects_family(runner, family):
    # the LaTeX table prints no family, so an explicit --family would be
    # dropped, even the default one
    args = ["polys", "--entry", "A2a-flip", "--format", "latex", "--family", family]
    assert _assert_rejected(runner.invoke(main, args)) == (
        "--family needs --format json: the LaTeX table prints no family"
    )


def test_verify_pass_and_determinism(runner):
    args = ["verify", "--entry", "A2-flip", "--modes", "2"]
    res1 = runner.invoke(main, args)
    res2 = runner.invoke(main, args)
    assert res1.exit_code == 0
    assert res1.output == res2.output
    data = _json_out(res1)
    assert data["report"]["pass"] is True
    kinds = {c["relation"] for c in data["report"]["checks"]}
    assert {"H", "XX", "Xplus", "Xminus", "DSplus", "DSminus"} <= kinds


_NO_WINDOW = {
    "schema": 2,
    "error": {
        "kind": "JobError",
        "message": "verify brackets exactly at every degree and takes no --window",
    },
}


def _assert_window_rejected(runner, args, window):
    """verify rejects --window as input (exit 2); without it, returns the run."""
    res = runner.invoke(main, ["verify", *args, "--window", window])
    assert res.exit_code == 2
    assert _json_out(res) == _NO_WINDOW
    res = runner.invoke(main, ["verify", *args])
    assert '"window"' not in res.output and '"out_of_window"' not in res.output
    return res


def test_verify_window_abort(runner):
    # verify brackets exactly at every degree, so it takes no window: the
    # tiny window 3,2, which once aborted A2-flip at modes 2 or left gaps,
    # is rejected as input, and the same run without it passes
    res = _assert_window_rejected(runner, ["--entry", "A2-flip", "--modes", "2"], "3,2")
    assert res.exit_code == 0


def test_verify_window_abort_deterministic(runner):
    # modes 4 with a t1-window of 5 once aborted on the degree-8 commutator
    # grid; the window is now rejected, and the bracket needs none
    res = _assert_window_rejected(runner, ["--entry", "A2-flip", "--modes", "4"], "5,2")
    assert res.exit_code == 0
    assert _json_out(res)["report"]["pass"] is True


def test_verify_gaps_exit_3(runner, tmp_path, monkeypatch):
    # the window 4,2 once held every Cartan relation at modes 2 but not every
    # grid point of the weighted ones, and the report passed with gaps and
    # exit 3.  The window is rejected; without it the report passes with no
    # gap and exit 0, for one entry and for --entry all
    args = ["--entry", "A2-flip", "--modes", "2"]
    res = _assert_window_rejected(runner, args, "4,2")
    assert res.exit_code == 0
    assert _json_out(res)["report"]["pass"] is True
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([{"name": "gappy", "cartan": [[2, -1], [-1, 2]], "mu": [1, 0]}]))
    monkeypatch.setenv("LOOMFOLD_CATALOG", str(path))
    res = _assert_window_rejected(runner, ["--entry", "all", "--modes", "2"], "4,2")
    assert res.exit_code == 0
    assert _json_out(res)["pass"] is True


def test_verify_all_reports_window_abort_per_entry(runner, tmp_path):
    # at window 2,0 every loop entry once aborted (its generators have
    # t2-degree 1).  The window is rejected for --entry all and for one
    # entry; without it no entry aborts: each entry is reported, A4-flip
    # still fails the plain weight 1, and so does A1a-flip, now verified
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(_user()[1]))
    args = ["--modes", "1", "--family", f"user:{path}"]
    res = _assert_window_rejected(runner, ["--entry", "all", *args], "2,0")
    assert res.exit_code == 1
    data = _json_out(res)
    assert data["pass"] is False
    entries = {e["name"]: e for e in data["entries"]}
    assert len(entries) == 17
    assert not any("error" in e for e in entries.values())
    assert entries["A4-flip"]["report"]["pass"] is False
    single = _assert_window_rejected(runner, ["--entry", "A1a-flip", *args], "2,0")
    assert single.exit_code == 1
    assert entries["A1a-flip"]["report"] == _json_out(single)["report"]


def test_exit_code_precedence():
    assert _combined_exit_code([0, 0]) == 0
    assert _combined_exit_code([0, 2]) == 2
    assert _combined_exit_code([2, 1, 0]) == 1
    assert _combined_exit_code([2, 1]) == 1
    assert _combined_exit_code([]) == 0


def test_verify_default_window_without_negative_entry(runner, tmp_path):
    # A1 has no a_ij < 0: the automatic window takes arity 1; verify
    # brackets with no window and reports none
    path = tmp_path / "a1.json"
    path.write_text(json.dumps({"cartan": [[2]]}))
    res = runner.invoke(main, ["verify", "--input", str(path), "--modes", "1"])
    assert res.exit_code == 0
    data = _json_out(res)
    assert "window" not in data
    assert data["report"]["pass"] is True
    gcm = Gcm([[2]])
    mu = validate_aut(gcm, [0])
    assert suite_window(gcm, mu, family_p(gcm, mu), 1) == (6, 4)


def test_verify_window_counts_negative_exponents(runner, tmp_path):
    # a family whose only term is z1^-30 shifts the operand modes by -30:
    # every grid point is checked, with no gap
    fam = {"pairs": [{"i": 1, "j": 0, "terms": {"0,1": _poly(([-30, 0, 0], _ONE))}}]}
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    res = runner.invoke(
        main, ["verify", "--entry", "A2a-flip", "--modes", "1", "--family", f"user:{path}"]
    )
    assert res.exit_code == 1
    p1 = [c for c in _json_out(res)["report"]["checks"] if c["relation"].startswith("P1")]
    assert p1 and all(c["checked"] > 0 and "out_of_window" not in c for c in p1)


def test_verify_user_family_failure_exit(runner, tmp_path):
    one = {
        "vars": ["z1", "z2", "w"],
        "terms": [
            {"exps": [0, 0, 0], "coeff": {"order": 1, "coeffs": ["1"]}}
        ],
    }
    fam = {
        "name": "plain",
        "pairs": [
            {"i": 1, "j": 0, "terms": {"0,1": one}},
        ],
    }
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    res = runner.invoke(
        main,
        ["verify", "--entry", "A2a-flip", "--modes", "1", "--family", f"user:{path}"],
    )
    assert res.exit_code == 1
    data = _json_out(res)
    assert data["report"]["pass"] is False
    failing = [c for c in data["report"]["checks"] if not c["pass"]]
    assert failing and failing[0]["failures"][0]["residual"]
    assert "window-scale" in data["note"]


def test_verify_mixed_order_family_residual_orders(runner, tmp_path):
    # one relation with a rational and a xi_5 coefficient on the field Q(xi_2):
    # the relation sums in Q(xi_10), and every residual coefficient prints
    # order 10
    xi5 = {"order": 5, "coeffs": ["0", "1", "0", "0"]}
    fam = {
        "name": "mixed",
        "pairs": [
            {"i": 1, "j": 0, "terms": {"0,1": _poly(([1, 0, 0], _ONE), ([0, 1, 0], xi5))}},
        ],
    }
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    res = runner.invoke(
        main,
        ["verify", "--entry", "A2a-flip", "--modes", "1", "--family", f"user:{path}"],
    )
    assert res.exit_code == 1
    orders = {
        item["coeff"]["order"]
        for chk in _json_out(res)["report"]["checks"]
        for failure in chk.get("failures", [])
        for item in failure["residual"]
    }
    assert orders == {10}


def test_verify_qlimit_family(runner):
    res = runner.invoke(
        main, ["verify", "--entry", "A2a-flip", "--modes", "1", "--family", "qlimit"]
    )
    assert res.exit_code == 0


def test_verify_extra_factor_family(runner, tmp_path):
    poly = {
        "vars": ["z1", "z2", "w"],
        "terms": [
            {"exps": [1, 0, 0], "coeff": {"order": 1, "coeffs": ["1"]}},
            {"exps": [0, 0, 1], "coeff": {"order": 1, "coeffs": ["1"]}},
        ],
    }
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({"pairs": [{"i": 0, "j": 1, "poly": poly}]}))
    res = runner.invoke(
        main, ["verify", "--entry", "A2-flip", "--modes", "1", "--family", f"f:{path}"]
    )
    assert res.exit_code == 0


def test_catalog_listing(runner):
    res = runner.invoke(main, ["catalog"])
    data = _json_out(res)
    names = [e["name"] for e in data["entries"]]
    assert len(names) >= 12
    assert "A1a-flip" in names and "D4a-triality" in names


# the sha256 of the stdout of the default commands on the built-in catalog;
# the verify report is 466 324 bytes.  Schema 2: the schema 1 output with
# "schema": 2 and no "window" object per entry, byte for byte
_PINNED_OUTPUT = {
    "catalog": "84daa44e610d2d5916fdd1c5d1b7b9095c85f8f2f3f9db2522388bb434253e31",
    "verify --entry all --modes 1": (
        "72f68b2f57801ab632c3fe537efbc9801e1d807d66ae4ef0d7c3b558fe8f14a3"
    ),
}


@pytest.mark.parametrize("command", sorted(_PINNED_OUTPUT))
def test_default_output_is_pinned(runner, monkeypatch, command):
    monkeypatch.delenv("LOOMFOLD_CATALOG", raising=False)
    res = runner.invoke(main, command.split())
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == _PINNED_OUTPUT[command]


def test_verify_all_reads_the_catalog_once(runner, tmp_path, monkeypatch):
    # every entry is verified from the one read of the catalog file: a
    # worker is handed its entry, not its name to look up again
    path = tmp_path / "cat.json"
    path.write_text(
        json.dumps(
            [
                {"name": "flip", "cartan": [[2, -1], [-1, 2]], "mu": [1, 0]},
                {"name": "id", "cartan": [[2, -1], [-1, 2]], "mu": [0, 1]},
                {"name": "chain", "cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], "mu": [2, 1, 0]},
            ]
        )
    )
    monkeypatch.setenv("LOOMFOLD_CATALOG", str(path))
    reads = []
    read_json = catalog.read_json

    def counting(*args):
        reads.append(args)
        return read_json(*args)

    monkeypatch.setattr(catalog, "read_json", counting)
    args = ["verify", "--entry", "all", "--modes", "1"]
    one = runner.invoke(main, args)
    assert one.exit_code == 0
    assert len(reads) == 1
    assert [e["name"] for e in _json_out(one)["entries"]] == ["flip", "id", "chain"]
    two = runner.invoke(main, args)
    assert two.exit_code == 0
    assert two.output == one.output


def test_catalog_env_override(runner, tmp_path, monkeypatch):
    path = tmp_path / "cat.json"
    path.write_text(
        json.dumps([{"name": "only", "cartan": [[2, -1], [-1, 2]], "mu": [1, 0]}])
    )
    monkeypatch.setenv("LOOMFOLD_CATALOG", str(path))
    res = runner.invoke(main, ["catalog"])
    data = _json_out(res)
    assert [e["name"] for e in data["entries"]] == ["only"]


@pytest.mark.parametrize("via", ["env", "path"])
def test_catalog_rejects_repeated_name(runner, tmp_path, monkeypatch, via):
    # a second entry named like the first would be looked up as the first
    # and never verified, while `verify --entry all` still passed
    path = tmp_path / "dup.json"
    path.write_text(
        json.dumps(
            [
                {"name": "X", "cartan": [[2, -1], [-1, 2]], "mu": [1, 0]},
                {"name": "X", "cartan": [[2, -2], [-2, 2]], "mu": [1, 0]},
            ]
        )
    )
    if via == "env":
        monkeypatch.setenv("LOOMFOLD_CATALOG", str(path))
        commands = [["catalog"], ["verify", "--entry", "all", "--modes", "1"]]
    else:
        commands = [["catalog", "--path", str(path)]]
    for args in commands:
        res = runner.invoke(main, args)
        assert res.exit_code == 2, args
        data = _json_out(res)
        assert data["error"]["kind"] == "JobError"
        assert "'X'" in data["error"]["message"]


@pytest.mark.parametrize("via", ["env", "path"])
def test_catalog_rejects_empty_list(runner, tmp_path, monkeypatch, via):
    # an empty catalog made `verify --entry all` pass with no entry checked
    path = tmp_path / "empty.json"
    path.write_text("[]")
    if via == "env":
        monkeypatch.setenv("LOOMFOLD_CATALOG", str(path))
        commands = [["catalog"], ["verify", "--entry", "all", "--modes", "1"]]
    else:
        commands = [["catalog", "--path", str(path)]]
    for args in commands:
        res = runner.invoke(main, args)
        assert res.exit_code == 2, args
        data = _json_out(res)
        assert data["error"]["kind"] == "JobError"
        assert "no entries" in data["error"]["message"]


def test_crosscheck(runner):
    res = runner.invoke(main, ["crosscheck", "--entry", "D4-triality"])
    assert res.exit_code == 0
    data = _json_out(res)
    assert data["pass"] is True
    rec = next(p for p in data["pairs"] if p["pair"] == [0, 1])
    assert rec["pair_symmetric"] is False  # observed asymmetry, reported not asserted


def test_crosscheck_reports_divergence(runner, tmp_path):
    # a partial rotation on the 6-cycle sits outside the case-list
    # simplification: the crosscheck reports it and exits nonzero
    path = tmp_path / "job.json"
    path.write_text(
        json.dumps(
            {
                "cartan": [
                    [2, -1, 0, 0, 0, -1],
                    [-1, 2, -1, 0, 0, 0],
                    [0, -1, 2, -1, 0, 0],
                    [0, 0, -1, 2, -1, 0],
                    [0, 0, 0, -1, 2, -1],
                    [-1, 0, 0, 0, -1, 2],
                ],
                "mu": [2, 3, 4, 5, 0, 1],
            }
        )
    )
    res = runner.invoke(main, ["crosscheck", "--input", str(path)])
    assert res.exit_code == 1
    data = _json_out(res)
    assert data["pass"] is False
    assert any(not p["weights_agree"] for p in data["pairs"])
    assert all(p["tuple_sets_agree"] for p in data["pairs"])


@pytest.mark.parametrize(
    "job,kind",
    [
        ({"cartan": [[2, -1.5], [-1, 2]]}, "NotGcm"),
        ({"cartan": [[2, -1], [-1, 2]], "mu": [1.7, 0.2]}, "NotAnAutomorphism"),
        ({"cartan": [[2, "x"], [-1, 2]]}, "NotGcm"),
    ],
)
def test_classify_rejects_non_integer_input(runner, tmp_path, job, kind):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    res = runner.invoke(main, ["classify", "--input", str(path)])
    assert res.exit_code == 2
    assert _json_out(res)["error"]["kind"] == kind


@pytest.mark.parametrize(
    "extra",
    [
        ["--modes", "-1"],
        ["--modes", "1", "--window", "-3,2"],
        ["--modes", "1", "--window", "8,-1"],
    ],
)
def test_verify_rejects_negative_bounds(runner, extra):
    res = runner.invoke(main, ["verify", "--entry", "A2-flip", *extra])
    assert res.exit_code == 2
    assert _json_out(res)["error"]["kind"] == "JobError"


@pytest.mark.parametrize(
    "extra",
    [
        ["--modes", "1_0"],
        ["--modes", " 3"],
        ["--modes", "\u0663"],
        ["--modes", "+1"],
        ["--modes", "1", "--window", "\u0663,2"],
        ["--modes", "1", "--window", "1_0,2"],
        ["--modes", "1", "--window", " 3,2"],
        ["--modes", "1", "--window", "3,+2"],
        ["--modes", "1", "--window", "3,2,1"],
        ["--modes", "1", "--window", ""],
    ],
)
def test_verify_rejects_malformed_integers(runner, extra):
    # --modes reads ASCII decimal integers only, as the sigma keys of a
    # family file are read: int() would take "1_0" as 10 and " 3" and the
    # Arabic-Indic digit three as 3.  Any --window, an empty one included,
    # is rejected: verify takes no window
    res = runner.invoke(main, ["verify", "--entry", "A2-id", *extra])
    assert res.exit_code == 2
    assert _json_out(res)["error"]["kind"] == "JobError"


@pytest.mark.parametrize("entry", ["A2-flip", "all"])
@pytest.mark.parametrize("jobs", ["0", "-3", "1", "2"])
def test_verify_rejects_jobs(runner, entry, jobs):
    # verify runs every entry in one process and has no --jobs option
    res = runner.invoke(main, ["verify", "--entry", entry, "--modes", "0", "--jobs", jobs])
    assert res.exit_code == 2
    assert "No such option '--jobs'" in res.output


@pytest.mark.parametrize(
    "args",
    [
        [cmd, "--entry", "no-such-entry"]
        for cmd in ("classify", "fold", "polys", "crosscheck", "verify")
    ]
    + [["catalog", "--path", "no-such-catalog.json"]],
)
def test_every_command_maps_input_errors_to_exit_2(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2, args
    data = _json_out(res)
    assert set(data) == {"schema", "error"}
    assert data["error"]["kind"] == "JobError"


def _coeff(text):
    return {"order": 1, "coeffs": [text]}


_ONE = _coeff("1")


def _poly(*terms):
    """A polynomial in z1, z2, w from (exps, coeff) pairs."""
    return {"vars": ["z1", "z2", "w"], "terms": [{"exps": e, "coeff": c} for e, c in terms]}


def _user(coeff=_ONE, key="0,1", **pair):
    """A user family with one pair, (1, 0) unless overridden."""
    item = {"i": 1, "j": 0, "terms": {key: _poly(([0, 0, 0], coeff))}, **pair}
    return "user", {"pairs": [{k: v for k, v in item.items() if v is not None}]}


@pytest.mark.parametrize(
    "selector,content",
    [
        _user(i=1.7),
        _user(i=True),
        _user(terms=None),
        _user({"order": 2.5, "coeffs": ["1"]}),
        _user({"order": 3, "coeffs": ["1"]}),
        _user({"order": 1, "coeffs": [0.5]}),
        _user({"order": 2**61 - 1, "coeffs": ["1"]}),
        _user(key="0,x"),
        ("f", {"pairs": [{"i": 0.0, "j": 1, "poly": _poly(([0, 0, 1], _ONE))}]}),
        ("f", {"pairs": [{"i": 0, "j": 1}]}),
        ("f", {"pairs": [{"i": 0, "j": 1, "poly": _poly(([0, 0, 1], _ONE), ([0, 0, 1], _ONE))}]}),
        # all-zero polynomials would make a relation that certifies 0 = 0
        ("user", {"pairs": [{"i": 1, "j": 0, "terms": {"0,1": _poly()}}]}),
        _user({"order": 1, "coeffs": ["0"]}),
        # only the strings to_json prints: Fraction would expand the first
        # into a billion-digit int, and take the others as 1.5, 1, 10 and 1
        *(
            _user(_coeff(c))
            for c in ("1e999999999", "1.5", " 1", "1_0", "\u0661")
        ),
        ("f", {"pairs": [{"i": 0, "j": 1, "poly": _poly(([0, 0, 1], _coeff("1e999")))}]}),
        # "0,1" and "00,1" are one permutation: the later would replace the earlier
        _user(terms={"0,1": _poly(), "00,1": _poly(([0, 0, 0], _ONE))}),
        # a repeated factor pair would keep only the later factor
        ("f", {"pairs": [{"i": 0, "j": 1, "poly": _poly(([0, 0, 1], _ONE))}] * 2}),
    ],
)
def test_verify_rejects_malformed_family_file(runner, tmp_path, selector, content):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(content))
    res = runner.invoke(
        main, ["verify", "--entry", "A2a-flip", "--modes", "0", "--family", f"{selector}:{path}"]
    )
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # exited through _fail, no traceback
    assert _json_out(res)["error"]["kind"] == "JobError"


@pytest.mark.parametrize(
    "selector, content, message",
    [
        ("job", {"cartan": [[2, -1], [-1, 2]], "Mu": [1, 0]}, "job file: unknown key 'Mu'"),
        ("job", {"cartan": [[2]], "window": [3, 2]}, "job file: unknown key 'window'"),
        ("user", {**_user()[1], "Name": "plain"}, "family file: unknown key 'Name'"),
        ("user", _user(poly=_poly())[1], "family file pair: unknown key 'poly'"),
        ("f", {"name": "extra", "pairs": []}, "factor file: unknown key 'name'"),
        (
            "f",
            {"pairs": [{"i": 0, "j": 1, "poly": _poly(([0, 0, 1], _ONE)), "terms": {}}]},
            "factor file pair: unknown key 'terms'",
        ),
    ],
)
def test_input_files_reject_unknown_keys(runner, tmp_path, selector, content, message):
    # a job file holds only cartan, mu and name; a family file only name and
    # pairs, each pair i, j and terms; a factor file only pairs, each pair
    # i, j and poly.  Any other key, most likely a misspelling, is named and
    # rejected: with "Mu" dropped the job would run with mu = id and pass
    path = tmp_path / "file.json"
    path.write_text(json.dumps(content))
    if selector == "job":
        runs = [[cmd, "--input", str(path)] for cmd in ("classify", "fold")]
        runs.append(["verify", "--input", str(path), "--modes", "0"])
    else:
        family = f"{selector}:{path}"
        runs = [["verify", "--entry", "A2a-flip", "--modes", "0", "--family", family]]
    for args in runs:
        assert _assert_rejected(runner.invoke(main, args)).startswith(message), args


def test_verify_rejects_repeated_family_pair(runner, tmp_path):
    # the failing plain weight 1, then family p's own entry for the same pair:
    # keeping only the later entry would pass without checking the first
    own = runner.invoke(main, ["polys", "--entry", "A2a-flip"])
    p_terms = next(e for e in _json_out(own)["family"]["pairs"] if e["pair"] == [1, 0])["terms"]
    _, plain = _user()
    path = tmp_path / "family.json"
    path.write_text(json.dumps(plain))
    args = ["verify", "--entry", "A2a-flip", "--modes", "1", "--family", f"user:{path}"]
    assert runner.invoke(main, args).exit_code == 1
    path.write_text(json.dumps({"pairs": plain["pairs"] + [{"i": 1, "j": 0, "terms": p_terms}]}))
    assert _assert_rejected(runner.invoke(main, args)) == "family pair (1, 0) appears twice"


def test_verify_all_reports_rejected_family_per_entry(runner, tmp_path, monkeypatch):
    # a family on the pair (2, 1): every two-node entry rejects it, and every
    # other entry is still verified; a failed relation outranks the rejections
    path = tmp_path / "fam21.json"
    path.write_text(json.dumps(_user(i=2, j=1)[1]))
    args = ["--modes", "0", "--family", f"user:{path}"]
    res = runner.invoke(main, ["verify", "--entry", "all", *args])
    assert res.exit_code == 1
    entries = _json_out(res)["entries"]
    rejected = [e["name"] for e in entries if "error" in e]
    assert rejected == ["A2-id", "A2-flip", "A1a-id", "A1a-flip"]
    assert len(entries) - len(rejected) == 13
    single = runner.invoke(main, ["verify", "--entry", "A2-flip", *args])
    want = _json_out(single)["error"]
    assert want == {"kind": "JobError", "message": '"i" must be a node index in 0..1, got 2'}
    assert all(e["error"] == want for e in entries if e["name"] in rejected)
    # with no relation failing, the rejection outranks the clean pass
    cat = tmp_path / "cat.json"
    cat.write_text(
        json.dumps(
            [
                {"name": "small", "cartan": [[2, -1], [-1, 2]], "mu": [0, 1]},
                {"name": "big", "cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], "mu": [0, 1, 2]},
            ]
        )
    )
    monkeypatch.setenv("LOOMFOLD_CATALOG", str(cat))
    res = runner.invoke(main, ["verify", "--entry", "all", *args])
    assert res.exit_code == 2
    data = _json_out(res)
    assert data["pass"] is False
    small, big = data["entries"]
    assert small == {"name": "small", "error": want}
    assert big["report"]["pass"] is True
    # a file that cannot be read is rejected once, before any entry
    path.write_bytes(_UNREADABLE["binary"])
    res = runner.invoke(main, ["verify", "--entry", "all", *args])
    assert _assert_rejected(res).startswith("cannot read family file: ")


def test_verify_rejects_factor_on_uncovered_pair(runner, tmp_path):
    # a_00 = 2, so family p has no entry (0, 0) for the factor to multiply
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({"pairs": [{"i": 0, "j": 0, "poly": _poly(([0, 0, 1], _ONE))}]}))
    res = runner.invoke(
        main, ["verify", "--entry", "A2a-flip", "--modes", "1", "--family", f"f:{path}"]
    )
    assert "(0, 0)" in _assert_rejected(res, "ScopeViolation")


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--entry", "A3-flip"],
        ["verify", "--entry", "all", "--modes", "0"],
        ["verify", "--entry", "", "--modes", "1"],
        ["fold", "--entry", ""],
    ],
)
def test_entry_and_input_together_rejected(runner, tmp_path, args):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-1, 2]], "mu": [1, 0]}))
    res = runner.invoke(main, args + ["--input", str(path)])
    assert _assert_rejected(res) == "provide --input FILE or --entry NAME, not both"


@pytest.mark.parametrize("cmd", ["classify", "fold", "polys", "crosscheck", "verify"])
def test_empty_entry_name_is_looked_up(runner, cmd):
    # `--entry ""` was taken for no entry at all: with --input it ran the job
    # file, and alone it asked for --input.  It names no catalog entry
    res = runner.invoke(main, [cmd, "--entry", ""])
    assert _assert_rejected(res) == "no catalog entry named ''"


# files no JSON reader can take: not UTF-8, or nested past the recursion limit
_UNREADABLE = {"binary": b"\xff\xfe", "deep": b"[" * 100_000}


def _assert_rejected(res, kind="JobError"):
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # exited through _fail, no traceback
    data = _json_out(res)
    assert set(data) == {"schema", "error"}
    assert data["error"]["kind"] == kind
    return data["error"]["message"]


@pytest.mark.parametrize("content", _UNREADABLE.values(), ids=_UNREADABLE.keys())
def test_unreadable_job_file(runner, tmp_path, content):
    path = tmp_path / "job.json"
    path.write_bytes(content)
    res = runner.invoke(main, ["classify", "--input", str(path)])
    assert _assert_rejected(res).startswith("cannot read job file: ")


@pytest.mark.parametrize("cmd", ["classify", "verify"])
def test_empty_input_path_is_read(runner, cmd):
    # `--input ""` was taken for no input at all and asked for --input; it
    # names a file that cannot be read
    res = runner.invoke(main, [cmd, "--input", ""])
    assert _assert_rejected(res).startswith("cannot read job file: ")


@pytest.mark.parametrize("content", _UNREADABLE.values(), ids=_UNREADABLE.keys())
def test_unreadable_catalog_file(runner, tmp_path, monkeypatch, content):
    path = tmp_path / "cat.json"
    path.write_bytes(content)
    monkeypatch.setenv("LOOMFOLD_CATALOG", str(path))
    for args in (["catalog"], ["verify", "--entry", "all", "--modes", "0"]):
        res = runner.invoke(main, args)
        assert _assert_rejected(res).startswith(f"cannot read catalog {path}: "), args


@pytest.mark.parametrize("selector", ["user", "f"])
@pytest.mark.parametrize("content", _UNREADABLE.values(), ids=_UNREADABLE.keys())
def test_unreadable_family_file(runner, tmp_path, selector, content):
    path = tmp_path / "family.json"
    path.write_bytes(content)
    res = runner.invoke(
        main, ["verify", "--entry", "A2a-flip", "--modes", "0", "--family", f"{selector}:{path}"]
    )
    what = "family" if selector == "user" else "factor"
    assert _assert_rejected(res).startswith(f"cannot read {what} file: ")


@pytest.mark.parametrize("via", ["env", "path"])
@pytest.mark.parametrize(
    "entry, message",
    [
        (
            {"name": "x", "cartan": [[2, -1], [-1, 2]], "mu": [1, 0], "muu": [0, 1]},
            "catalog entry: unknown key 'muu'; it may hold name, cartan, mu",
        ),
        ("oops", 'catalog entry must be an object, got "oops"'),
        ([[2, -1], [-1, 2]], "catalog entry must be an object, got [[2, -1], [-1, 2]]"),
        (None, "catalog entry must be an object, got null"),
    ],
)
def test_catalog_rejects_malformed_entries(runner, tmp_path, monkeypatch, via, entry, message):
    # a catalog entry holds name, cartan and mu, as a job file holds cartan,
    # mu and name: a misspelled key was dropped and the entry listed, and an
    # entry that is no object failed with Python's own TypeError text
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([{"name": "ok", "cartan": [[2]], "mu": [0]}, entry]))
    if via == "env":
        monkeypatch.setenv("LOOMFOLD_CATALOG", str(path))
        commands = [["catalog"], ["verify", "--entry", "all", "--modes", "0"]]
    else:
        commands = [["catalog", "--path", str(path)]]
    for args in commands:
        assert _assert_rejected(runner.invoke(main, args)) == message, args


@pytest.mark.parametrize("name", [5, None, ["A2"], {"a": 1}, True])
def test_catalog_rejects_non_string_name(runner, tmp_path, name):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([{"name": name, "cartan": [[2, -1], [-1, 2]], "mu": [1, 0]}]))
    res = runner.invoke(main, ["catalog", "--path", str(path)])
    assert _assert_rejected(res) == 'catalog entry "name" must be a string'


@pytest.mark.parametrize("name", [5, None, ["A2"]])
@pytest.mark.parametrize("cmd", ["classify", "fold", "polys", "crosscheck", "verify"])
def test_job_rejects_non_string_name(runner, tmp_path, cmd, name):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"name": name, "cartan": [[2, -1], [-1, 2]]}))
    res = runner.invoke(main, [cmd, "--input", str(path)])
    assert _assert_rejected(res) == 'job "name" must be a string'


def _sympy_class(a):
    """"finite", "affine" or the IndefiniteType error (kind, message) of a
    GCM, from sympy alone: the symmetrizer is the nullspace of
    eps_i a_ij = eps_j a_ji, and the leading principal minors of
    diag(eps) A decide."""
    import sympy

    n = len(a)
    eqs = [
        [a[i][j] if k == i else -a[j][i] if k == j else 0 for k in range(n)]
        for i in range(n)
        for j in range(i + 1, n)
        if a[i][j]
    ]
    eps = sympy.Matrix(eqs).nullspace() if eqs else [sympy.Matrix([1])]
    if len(eps) != 1:
        return ("IndefiniteType", "matrix is not symmetrizable")
    s = sympy.diag(*eps[0]) * sympy.Matrix(a)
    minors = [s[:k, :k].det() for k in range(1, n + 1)]
    if eps[0][0] < 0:
        minors = [d * (-1) ** k for k, d in enumerate(minors, 1)]
    if all(d > 0 for d in minors):
        return "finite"
    if all(d > 0 for d in minors[:-1]) and minors[-1] == 0:
        return "affine"
    return ("IndefiniteType", "matrix is neither of finite nor of affine type")


@st.composite
def _connected_gcms(draw):
    """Indecomposable GCMs of 1-5 nodes: a random spanning tree plus a few
    extra edges, each edge with its two entries drawn apart, mostly -1 so
    that finite and affine matrices come up often."""
    n = draw(st.integers(1, 5))
    entry = st.sampled_from([-1] * 8 + [-2, -2, -3, -4])
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    edges = [(draw(st.integers(0, j - 1)), j) for j in range(1, n)]
    edges += [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in edges and draw(st.integers(0, 4)) == 0
    ]
    for i, j in edges:
        a[i][j], a[j][i] = draw(entry), draw(entry)
    return a


@st.composite
def _near_canonical_gcms(draw):
    """A canonical finite or affine matrix of 1-5 nodes, relabelled, with
    one entry of an edge redrawn half of the time."""
    n = draw(st.integers(1, 5))
    pool = [c[4] for kind in ("finite", "affine") for c in _candidates(kind, n)]
    c = draw(st.sampled_from(pool))
    p = draw(st.permutations(range(n)))
    a = [[c[p[i]][p[j]] for j in range(n)] for i in range(n)]
    edges = [(i, j) for i in range(n) for j in range(n) if i != j and a[i][j]]
    if edges and draw(st.booleans()):
        i, j = draw(st.sampled_from(edges))
        a[i][j] = draw(st.integers(-4, -1))
    return a


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)
_jobs = st.one_of(
    st.one_of(_connected_gcms(), _near_canonical_gcms()).map(lambda a: {"cartan": a}),
    st.fixed_dictionaries(
        {"cartan": st.one_of(_connected_gcms(), _json_values)},
        optional={"mu": _json_values, "name": _json_values},
    ),
    _json_values,
)


@settings(max_examples=300, deadline=None)
@given(job=_jobs)
def test_classify_fuzz(tmp_path_factory, job):
    """Any job file gives one JSON payload and exit 0 or 2, never a
    traceback; a valid GCM classifies as sympy's leading minors say."""
    runner = CliRunner()
    path = tmp_path_factory.getbasetemp() / "fuzz-job.json"
    path.write_text(json.dumps(job))
    res = runner.invoke(main, ["classify", "--input", str(path)])
    assert res.exit_code in (0, 2)
    assert res.exception is None or isinstance(res.exception, SystemExit)
    data = _json_out(res)  # exactly one JSON payload
    if res.exit_code == 0:
        assert isinstance(data["name"], str)
        outcome = data["class"]
    else:
        assert set(data) == {"schema", "error"}
        outcome = (data["error"]["kind"], data["error"]["message"])
    gcm_given = isinstance(job, dict) and set(job) == {"cartan"}
    if gcm_given and data.get("error", {}).get("kind") != "NotGcm":
        assert outcome == _sympy_class(job["cartan"])


def _leaves(doc, path=()):
    """The paths to every value inside a JSON document."""
    items = enumerate(doc) if isinstance(doc, list) else doc.items() if isinstance(doc, dict) else ()
    for k, v in items:
        yield path + (k,)
        yield from _leaves(v, path + (k,))


@st.composite
def _mutated(draw, valid):
    """A document of `valid`, or one with a single value replaced by arbitrary JSON."""
    doc = draw(valid)
    paths = list(_leaves(doc))
    if paths and draw(st.integers(0, 3)):
        *up, last = draw(st.sampled_from(paths))
        target = doc
        for k in up:
            target = target[k]
        target[last] = draw(_json_values)
    return doc


# valid family and factor files for A2-flip (pairs (0, 1) and (1, 0)): one
# monomial per polynomial, so each is homogeneous and none vanishes on the
# diagonal; exponents stay small, so that each run stays quick
_fuzz_poly = st.builds(
    lambda exps, c: {"vars": ["z1", "z2", "w"], "terms": [{"exps": exps, "coeff": c}]},
    st.lists(st.integers(-2, 2), min_size=3, max_size=3),
    st.one_of(
        st.builds(lambda c: {"order": 1, "coeffs": [c]}, st.sampled_from(["1", "-2", "1/3"])),
        st.builds(lambda c: {"order": 3, "coeffs": [c, "-1"]}, st.sampled_from(["0", "1"])),
    ),
)
_fuzz_pairs = st.lists(st.sampled_from([(0, 1), (1, 0)]), min_size=1, max_size=2, unique=True)
_fuzz_user = st.builds(
    lambda pairs, polys: {
        "name": "fuzz",
        "pairs": [
            {"i": i, "j": j, "terms": {"0,1": p, "1,0": q}} for (i, j), (p, q) in zip(pairs, polys)
        ],
    },
    _fuzz_pairs,
    st.lists(st.tuples(_fuzz_poly, _fuzz_poly), min_size=2, max_size=2),
)
_fuzz_factor = st.builds(
    lambda pairs, polys: {"pairs": [{"i": i, "j": j, "poly": p} for (i, j), p in zip(pairs, polys)]},
    _fuzz_pairs,
    st.lists(_fuzz_poly, min_size=2, max_size=2),
)
_fuzz_catalog = st.lists(
    _connected_gcms().map(lambda a: {"cartan": a, "mu": list(range(len(a)))}), min_size=1, max_size=3
).map(lambda entries: [dict(e, name=f"e{k}") for k, e in enumerate(entries)])


@settings(max_examples=120, deadline=None)
@given(
    job=st.one_of(
        st.tuples(st.just("user"), _mutated(_fuzz_user)),
        st.tuples(st.just("f"), _mutated(_fuzz_factor)),
        st.tuples(st.just("catalog"), _mutated(_fuzz_catalog)),
    )
)
def test_family_and_catalog_file_fuzz(tmp_path_factory, job):
    """Any user: family, f: factor or catalog file gives one JSON payload and
    an exit code of the contract, never a traceback."""
    kind, content = job
    path = tmp_path_factory.getbasetemp() / "fuzz-file.json"
    path.write_text(json.dumps(content))
    if kind == "catalog":
        args = ["catalog", "--path", str(path)]
    else:
        args = ["verify", "--entry", "A2-flip", "--modes", "0", "--family", f"{kind}:{path}"]
    res = CliRunner().invoke(main, args)
    assert res.exit_code in (0, 1, 2)
    assert res.exception is None or isinstance(res.exception, SystemExit)
    data = _json_out(res)  # exactly one JSON payload
    if res.exit_code == 2:
        assert set(data) == {"schema", "error"}
