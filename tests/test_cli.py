import json
import time

import pytest

from addnf import EngineError, Generator, render_formula, space
from addnf.cli import main
from addnf.logics import build_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_normalize_prop(capsys):
    doc = run_json(capsys, "normalize", "--logic", "prop", "(or p q)")
    assert doc["sigma"] == [0, 1, 2]
    assert doc["size"] == 3 and doc["space_size"] == 4


def test_normalize_modal(capsys):
    doc = run_json(capsys, "normalize", "--logic", "modal-k", "--k", "1", "(dia p)")
    assert doc["sigma"] == [0, 1, 4, 5] and doc["space_size"] == 8


def test_normalize_contradiction_renders(capsys):
    doc = run_json(capsys, "normalize", "--logic", "prop", "--render", "(and p (not p))")
    assert doc["sigma"] == [] and doc["formula"] == "(and p (not p))"


def test_count(capsys):
    doc = run_json(capsys, "count", "--logic", "modal-k", "--X", "p", "--k", "2")
    assert doc["count"] == 512
    doc = run_json(capsys, "count", "--logic", "modal-k", "--X", "p,q", "--k", "2")
    assert doc["count"] == 4 * 2 ** 64


def test_enumerate(capsys):
    doc = run_json(capsys, "enumerate", "--logic", "prop", "--X", "p,q", "--k", "0", "--render")
    assert doc["size"] == 4
    assert doc["members"][0] == {"color": ["p", "q"], "formula": "(and p q)", "index": 0}
    assert doc["members"][3]["color"] == []


def test_enumerate_renders_each_member_as_render_formula(capsys):
    doc = run_json(capsys, "enumerate", "--logic", "modal-k", "--X", "p", "--k", "2", "--render")
    inst = build_instance("modal-k")
    gen = Generator(2, {"p"}, frozenset(inst.logic.connectives.values()), inst.domain.points)
    sp = space(gen, inst.domain)
    assert [m["index"] for m in doc["members"]] == list(range(sp.size)) and sp.size == 512
    for m in doc["members"]:
        assert m["formula"] == render_formula(sp.formula(m["index"]), inst.logic)


def test_enumerate_modal_sub_schema(capsys):
    doc = run_json(capsys, "enumerate", "--logic", "modal-k", "--X", "p", "--k", "1")
    assert doc["members"][0]["sub"] == {"dia": [[0], [1]]}
    assert "base" not in doc["members"][0]


def test_partition_check(capsys):
    code, out, _ = run(capsys, "partition-check", "--logic", "modal-k",
                       "--X", "p", "--k", "1", "--bound", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["contexts"] == 68
    assert set(doc) == {"key", "size", "ok", "exact", "contexts", "bound", "countermodel"}


def test_parse_command(capsys):
    doc = run_json(capsys, "parse", "--logic", "modal-k", "(dia (and p (dia q)))")
    assert doc["depth"] == 2
    assert doc["propositions"] == ["p", "q"] and doc["connectives"] == ["dia"]


def test_verify_exact(capsys):
    code, out, _ = run(capsys, "verify", "--logic", "prop", "(iff p (not (not p)))")
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"]["ok"] is True and doc["verified"]["exact"] is True
    # The one-point frames decide it: there is no model-size bound to report.
    assert doc["verified"]["bound"] is None


def test_verify_exit_code_on_countermodel(capsys, monkeypatch):
    import addnf.cli as cli
    from addnf import Report

    monkeypatch.setattr(
        cli, "verify",
        lambda *a, **k: Report(False, True, 1, 0, {"context": {}, "point": {}}),
    )
    code, out, _ = run(capsys, "verify", "--logic", "prop", "(or p (not p))")
    assert code == 2
    assert json.loads(out)["verified"]["ok"] is False


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("(or p q)"))
    doc = run_json(capsys, "normalize", "--logic", "prop")
    assert doc["sigma"] == [0, 1, 2]


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "gf.json"
    cfg.write_text(json.dumps({"variables": ["u", "v"], "relations": {"R": 2}}))
    doc = run_json(capsys, "normalize", "--logic", "gf", "--config", str(cfg),
                   "(ex (u) (R u v) (R u v))")
    assert doc["sigma"] == [0, 1, 4, 5]
    assert doc["generator"]["E"] == ["u", "v"]


def test_gf_flags_with_atom_ids(capsys):
    doc = run_json(
        capsys, "count", "--logic", "gf",
        "--X", "(R v v)", "--Y", "(ex () (R v v)),(ex (v) (R v v))",
        "--E", "v", "--k", "1",
    )
    assert doc["count"] == 32


def test_errors_exit_one(capsys):
    code, _, err = run(capsys, "normalize", "--logic", "prop", "(or p")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "normalize", "--logic", "modal-k", "--k", "0", "(dia p)")
    assert code == 1 and "degree" in err
    code, _, err = run(capsys, "count", "--logic", "prop", "--X", "p")
    assert code == 1 and "--k" in err
    code, _, err = run(capsys, "count", "--logic", "modal-k", "--X", "p,q", "--k", "3")
    assert code == 1 and "does not fit" in err
    code, _, err = run(capsys, "enumerate", "--logic", "modal-k", "--X", "p,q", "--k", "2")
    assert code == 1 and "cap" in err
    code, _, err = run(capsys, "normalize", "--logic", "prop", "--config", "/nope.json", "p")
    assert code == 1 and "config" in err


def test_unknown_flag_values(capsys):
    code, _, err = run(capsys, "count", "--logic", "modal-k", "--X", "p",
                       "--Y", "box", "--k", "1")
    assert code == 1 and "box" in err
    code, _, err = run(capsys, "count", "--logic", "prop", "--X", "p",
                       "--E", "nowhere", "--k", "0")
    assert code == 1 and "nowhere" in err


def test_text_format(capsys):
    code, out, _ = run(capsys, "count", "--logic", "prop", "--X", "p", "--k", "0",
                       "--format", "text")
    assert code == 0
    assert out.splitlines() == ['count: 2', 'key: {"E": ["*"], "X": ["p"], "Y": [], "k": 0}']


def test_determinism_two_runs(capsys):
    argvs = [
        ["normalize", "--logic", "prop", "--render", "(or p q)"],
        ["enumerate", "--logic", "modal-k", "--X", "p", "--k", "1", "--render"],
        ["count", "--logic", "modal-k", "--X", "p,q", "--k", "2"],
        ["partition-check", "--logic", "prop", "--X", "p,q", "--k", "0"],
        ["verify", "--logic", "prop", "(iff p p)"],
    ]
    for argv in argvs:
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


def test_resource_errors_exit_one(capsys):
    deep = "(not " * 2000 + "p" + ")" * 2000
    argvs = [
        ["count", "--logic", "modal-k", "--X", "p", "--k", "3000"],
        ["parse", "--logic", "prop", deep],
        ["count", "--logic", "gf", "--X", "(R u v)", "--k", "2"],
        ["verify", "--logic", "gf", "(ex (u) (R u v) (ex (v) (R v u) (R v v)))"],
    ]
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv[:3]
        assert err.startswith("error:") and "Traceback" not in err
        assert out == ""


@pytest.mark.parametrize("command", ["normalize", "verify"])
def test_a_600_deep_not_nest_exits_zero(capsys, command):
    deep = "(not " * 600 + "p" + ")" * 600
    doc = run_json(capsys, command, "--logic", "prop", deep)
    assert doc["sigma"] == [0]


def test_huge_bound_fails_the_budget_fast(capsys):
    # The budget is decided from each size's exponent; the model count at
    # this bound would take gigabytes to build.
    argvs = [
        ["verify", "--logic", "modal-k", "--bound", "100000", "(dia p)"],
        ["verify", "--logic", "gf", "--bound", "100000", "(ex (u) (R u v) (R u v))"],
        ["verify", "--logic", "bao", "--bound", "100000", "(f (plus x (minus x)))"],
        ["partition-check", "--logic", "modal-k", "--X", "p", "--k", "1",
         "--bound", "100000"],
    ]
    for argv in argvs:
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0, argv[:3]
        assert code == 1 and out == "", argv[:3]
        assert err.startswith("error: ") and "exceed" in err and "the budget" in err
        assert "Traceback" not in err


# (label, config written to a file or None, argv): each must end as one
# error line with exit code 1.
MALFORMED = [
    ("diamonds-not-a-list", {"diamonds": 5},
     ["parse", "--logic", "modal-k", "(dia p)"]),
    ("arity-not-an-int", {"relations": {"R": "x"}},
     ["parse", "--logic", "gf", "(R u v)"]),
    ("propositions-not-a-list", {"propositions": 7},
     ["parse", "--logic", "prop", "p"]),
    ("unknown-config-key", {"diamond": ["box"]},
     ["parse", "--logic", "modal-k", "(dia p)"]),
    # the language size is decided before any atom is enumerated
    ("gf-arity-20", {"relations": {"R": 20}},
     ["parse", "--logic", "gf", "(R u v)"]),
    ("gf-arity-huge", {"relations": {"R": 1000000000}},
     ["parse", "--logic", "gf", "(R u v)"]),
    ("negative-degree", None,
     ["count", "--logic", "modal-k", "--X", "p", "--k", "-1"]),
    ("verify-bound-0", None,
     ["verify", "--logic", "modal-k", "--bound", "0", "(dia p)"]),
    ("partition-bound-0", None,
     ["partition-check", "--logic", "modal-k", "--X", "p", "--k", "1", "--bound", "0"]),
    # usage errors: a command takes only the flags it reads
    ("normalize-bound", None, ["normalize", "--logic", "modal-k", "--bound", "0", "(dia p)"]),
    ("count-render", None, ["count", "--logic", "modal-k", "--X", "p", "--k", "1", "--render"]),
    ("parse-k", None, ["parse", "--k", "1", "p"]),
    ("unknown-flag", None, ["count", "--bogus"]),
    ("no-subcommand", None, []),
]


@pytest.mark.parametrize("config,argv", [c[1:] for c in MALFORMED],
                         ids=[c[0] for c in MALFORMED])
def test_malformed_input_exits_one(capsys, tmp_path, config, argv):
    argv = _with_config(tmp_path, config, argv)
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


def _with_config(tmp_path, config, argv):
    """``argv`` with ``config``, unless None, written to a file and passed
    by ``--config`` before the last argument."""
    if config is None:
        return argv
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return argv[:-1] + ["--config", str(cfg), argv[-1]]


FOURTEEN = ",".join([f"p{i}" for i in range(10)] + ["pa", "pb", "pc", "pd"])

# (label, config or None, argv, what the one error line says): error
# paths that no other test reaches, each exit 1.
ERROR_LINES = [
    ("config-not-an-object", [1, 2], ["parse", "p"], "must hold a JSON object"),
    ("X-not-a-proposition", None, ["count", "--logic", "modal-k", "--X", "(x", "--k", "1"],
     "unknown proposition '(x' for --X"),
    ("count-without-X", None, ["count", "--k", "0"], "--X is required"),
    ("count-too-long-to-print", None,
     ["count", "--logic", "modal-k", "--k", "1", "--X", FOURTEEN],
     "2**16398 members; the count has too many digits to print"),
    ("X-empty", None, ["normalize", "--X", ",", "p"], "no subset of V=['*'] is large enough"),
    ("empty-input", None, ["parse", ""], "unexpected end of input"),
    ("list-as-head", None, ["parse", "((not) p)"], "expected a connective name (at 1:2)"),
    ("gf-one-variable", {"variables": ["u"]}, ["parse", "--logic", "gf", "p"],
     "at least two variables"),
    ("gf-relation-named-eq", {"relations": {"=": 2}}, ["parse", "--logic", "gf", "p"],
     "spell equality via the equality flag"),
    ("gf-arity-0", {"relations": {"R": 0}}, ["parse", "--logic", "gf", "p"],
     "relation 'R' must have arity >= 1"),
    ("bao-rank-0", {"operators": {"f": 0}}, ["parse", "--logic", "bao", "x"],
     "operator 'f' must have rank >= 1"),
    ("bao-variable-and-constant", {"constants": ["x"]}, ["parse", "--logic", "bao", "x"],
     "variables and constants must be disjoint"),
    ("bao-no-symbol", {"variables": []}, ["parse", "--logic", "bao", "x"],
     "needs at least one variable or constant"),
    ("bao-operator-named-like-a-symbol", {"operators": {"x": 1}},
     ["parse", "--logic", "bao", "x"], "operator names must not collide with symbols"),
    ("connective-largeness", None,
     ["verify", "--logic", "gf", "--X", "(R u u)", "(ex (v) (R v v) (R v v))"],
     "connective-largeness: j2((ex (v) (R v v))) is not large enough for X"),
]


@pytest.mark.parametrize("config,argv,says", [c[1:] for c in ERROR_LINES],
                         ids=[c[0] for c in ERROR_LINES])
def test_each_error_path_is_one_error_line(capsys, tmp_path, config, argv, says):
    code, out, err = run(capsys, *_with_config(tmp_path, config, argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and says in err


# (logic, config, what the error says): names whose formulas would not
# read back as themselves after rendering.
UNREADABLE_NAMES = [
    ("modal-k", {"diamonds": ["not"]}, "connective 'not' of modal-k is spelled as one of its"),
    ("modal-k", {"diamonds": ["imp"]}, "connective 'imp' of modal-k is spelled as one of its"),
    ("bao", {"operators": {"plus": 1}}, "connective 'plus' of bao is spelled as one of its"),
    ("bao", {"variables": ["0", "x"]}, "proposition '0' of bao is spelled as a token"),
    ("modal-k", {"diamonds": ["(x"]}, "connective '(x' of modal-k is not one token"),
    ("modal-k", {"diamonds": ["a b"]}, "connective 'a b' of modal-k is not one token"),
]


@pytest.mark.parametrize("logic,config,says", UNREADABLE_NAMES)
def test_a_logic_refuses_names_it_cannot_read_back(capsys, tmp_path, logic, config, says):
    with pytest.raises(EngineError) as refused:
        build_instance(logic, config)
    assert says in str(refused.value)
    argv = _with_config(tmp_path, config, ["parse", "--logic", logic, "p"])
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {refused.value}\n")


# The flags each command does not read, with a value where one is taken.
UNREAD_FLAGS = {
    "parse": ["--k 1", "--X p", "--Y dia", "--E *", "--cap 8", "--bound 2", "--render"],
    "count": ["--cap 8", "--bound 2", "--render"],
    "enumerate": ["--bound 2"],
    "normalize": ["--bound 2"],
    "partition-check": ["--render"],
}


@pytest.mark.parametrize("command", sorted(UNREAD_FLAGS))
def test_commands_reject_flags_they_do_not_read(capsys, command):
    for flag in UNREAD_FLAGS[command]:
        code, out, err = run(capsys, command, "--logic", "modal-k", *flag.split())
        assert code == 1 and out == "", flag
        assert err.startswith("error: unrecognized arguments: " + flag.split()[0]), flag


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: addnf")
