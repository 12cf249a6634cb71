"""End-to-end command checks, run in process through main()."""

import argparse
import hashlib
import json
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from pebblecc import acceptance
from pebblecc.cli import build_parser, main
from pebblecc.graph import chain, dag_to_json, layered_random, pyramid
from pebblecc.reductions import counterexample_dag


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def graph_file(tmp_path, g, name="g.json"):
    return write(tmp_path, name, dag_to_json(g))


def test_gen_chain(capsys):
    assert main(["gen", "chain", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]}


def test_gen_layered_random_uses_seed(capsys):
    assert main(["gen", "layered_random", "8", "--seed", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == json.loads(dag_to_json(layered_random(8, 3)))


def test_gen_rejects_unknown_kind():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "torus", "4"])
    assert exc.value.code == 2


def test_depth_human_and_json(tmp_path, capsys):
    gf = graph_file(tmp_path, chain(5))
    assert main(["depth", "--graph", gf]) == 0
    assert capsys.readouterr().out.strip() == "depth (nodes) = 5"
    assert main(["depth", "--graph", gf, "--convention", "edges", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"depth": 4, "convention": "edges"}


def test_pebble_check_verdicts(tmp_path, capsys):
    gf = graph_file(tmp_path, chain(3))
    good = write(tmp_path, "p.json", '{"mode": "parallel", "rounds": [[1], [2], [3]]}')
    bad = write(tmp_path, "q.json", '{"mode": "parallel", "rounds": [[3]]}')
    assert main(["pebble-check", "--graph", gf, good]) == 0
    assert capsys.readouterr().out.strip() == "legal"
    assert main(["pebble-check", "--graph", gf, bad]) == 1
    assert "missing_parent" in capsys.readouterr().out


def test_cost_report(tmp_path, capsys):
    pf = write(tmp_path, "p.json", '{"mode": "parallel", "rounds": [[1], [1, 2]]}')
    assert main(["cost", pf, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "cc": 3,
        "st": 4,
        "t": 2,
        "max_space": 2,
    }


def test_pcc_json(tmp_path, capsys):
    gf = graph_file(tmp_path, chain(4))
    assert main(["pcc", "--graph", gf, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pcc"] == 4 and data["proven"]
    assert data["witness"] == [[1], [2], [3], [4]]


def test_pcc_bounded_infeasible_exit(tmp_path, capsys):
    gf = graph_file(tmp_path, chain(3))
    assert main(["pcc-bounded", "--graph", gf, "--horizon", "2"]) == 1
    assert "infeasible" in capsys.readouterr().err


def test_pcc_node_cap_exit(tmp_path, capsys):
    gf = graph_file(tmp_path, chain(25))
    assert main(["pcc", "--graph", gf]) == 3
    assert "limit hit" in capsys.readouterr().err


def test_pcc_state_cap_exit(tmp_path, capsys):
    from pebblecc.reductions import counterexample_dag

    gf = graph_file(tmp_path, counterexample_dag())
    assert main(["pcc", "--graph", gf, "--max-states", "3"]) == 3
    assert "limit hit" in capsys.readouterr().err
    # past the dive the line carries the proven interval
    assert main(["pcc", "--graph", gf, "--max-states", "50"]) == 3
    err = capsys.readouterr().err
    assert "limit hit: state cap 50 hit at bound" in err
    assert "; optimum in [" in err


def test_pcc_bounded_state_cap_exit(tmp_path, capsys):
    from pebblecc.reductions import counterexample_dag

    gf = graph_file(tmp_path, counterexample_dag())
    assert main(["pcc-bounded", "--graph", gf, "--horizon", "16", "--max-states", "50"]) == 3
    err = capsys.readouterr().err
    assert "limit hit: state cap 50 hit at bound" in err
    assert err.rstrip().endswith("optimum in [25, 68]")


def test_min_st_and_min_space(tmp_path, capsys):
    from pebblecc.graph import pyramid

    gf = graph_file(tmp_path, pyramid(2))
    assert main(["min-st", "--graph", gf, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["min_st"] == 4
    assert main(["min-space", "--graph", gf, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["min_space"] == 2


def test_b2lc_solve_exit_codes(tmp_path, capsys):
    yes = write(tmp_path, "yes.json", '{"n_vars": 2, "m": 1, "equations": [[1, 1, 2]]}')
    no = write(
        tmp_path, "no.json", '{"n_vars": 2, "m": 1, "equations": [[1, 1, 2], [2, 1, 1]]}'
    )
    assert main(["b2lc-solve", yes, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["covered"]
    assert main(["b2lc-solve", no]) == 1
    assert "not coverable" in capsys.readouterr().out


def test_3part_solve(tmp_path, capsys):
    inst = write(tmp_path, "tp.json", '{"n": 1, "elements": [1, 2, 3]}')
    assert main(["3part-solve", inst, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["partitionable"]


def test_reduce_3part_to_b2lc(tmp_path, capsys):
    inst = write(tmp_path, "tp.json", '{"n": 1, "elements": [1, 2, 3]}')
    assert main(["reduce", "3part-to-b2lc", inst]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["m"] == 1
    assert len(data["equations"]) == 4  # 3n^2 + n


def test_reduce_b2lc_to_graph_worked_instance(tmp_path, capsys):
    inst = write(
        tmp_path, "b.json", '{"n_vars": 2, "m": 2, "equations": [[1, 1, 2], [1, 2, 2]]}'
    )
    assert main(["reduce", "b2lc-to-graph", "--tau", "2", inst]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["graph"]["n"] == 28


def test_reduce_vc(tmp_path, capsys):
    inst = write(tmp_path, "vc.json", '{"n": 3, "edges": [[1, 2], [2, 3]]}')
    assert main(["reduce", "vc", inst]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dag"]["n"] == 9
    assert data["originals"] == [3, 5, 7]


def test_reduce_counterexample(capsys):
    assert main(["reduce", "counterexample"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 16 and len(data["edges"]) == 22


def test_reduce_append_chain(tmp_path, capsys):
    gf = graph_file(tmp_path, chain(2))
    assert main(["reduce", "append-chain", "--graph", gf, "3"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 5


def test_depth_check_forms(tmp_path, capsys):
    gf = graph_file(tmp_path, chain(5))
    assert main(["depth-check", "--graph", gf, "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"e_min": 1, "witness_set": [3]}
    assert main(["depth-check", "--graph", gf, "2", "1"]) == 0
    assert "[3]" in capsys.readouterr().out
    assert main(["depth-check", "--graph", gf, "1", "1"]) == 1


def test_lp_build_summaries(tmp_path, capsys):
    gf = graph_file(tmp_path, chain(2))
    assert main(["lp", "build-pebbling", "--graph", gf, "--horizon", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "variables": 10,
        "constraints": 5,
        "sink_constraints": 1,
        "move_constraints": 4,
    }
    assert main(["lp", "build-reducible", "--graph", gf, "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["variables"] == 6


def test_lp_emit_and_relax(tmp_path, capsys):
    gf = graph_file(tmp_path, chain(2))
    assert main(["lp", "emit", "pebbling", "--graph", gf, "--horizon", "2"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("Minimize") and "Generals" in text
    assert main(["lp", "relax", "pebbling", "--graph", gf, "--horizon", "2"]) == 0
    assert "Generals" not in capsys.readouterr().out
    assert main(["lp", "emit", "reducible", "--graph", gf, "--d", "1"]) == 0
    assert "path_1_1_2" in capsys.readouterr().out
    # reducible without --d is a usage error
    assert main(["lp", "emit", "reducible", "--graph", gf]) == 2


def test_lp_fractional_commands(tmp_path, capsys):
    gf = graph_file(tmp_path, chain(4))
    assert main(["lp", "frac-pebbling", "--graph", gf]) == 0
    assert "objective = 17/2" in capsys.readouterr().out
    assert main(["lp", "frac-timed", "--graph", gf, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["feasible"] and data["objective"] == "6"
    assert main(["lp", "frac-reducible", "--graph", gf, "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["objective"] == "2"


def test_lp_frac_timed_infeasible_exit(tmp_path, capsys):
    from pebblecc.reductions import counterexample_dag

    gf = graph_file(tmp_path, counterexample_dag())
    assert main(["lp", "frac-timed", "--graph", gf]) == 1
    assert "move_7_12" in capsys.readouterr().out


def test_lp_verify(tmp_path, capsys):
    gf = graph_file(tmp_path, chain(1))
    good = write(tmp_path, "s.json", '{"values": {"x_1_0": 0, "x_1_1": 1}}')
    bad = write(tmp_path, "t.json", '{"values": {"x_1_0": 0, "x_1_1": "1/2"}}')
    assert main(["lp", "verify", "pebbling", "--graph", gf, good, "--horizon", "1"]) == 0
    capsys.readouterr()
    assert main(["lp", "verify", "pebbling", "--graph", gf, bad, "--horizon", "1"]) == 1
    assert "sink_1" in capsys.readouterr().out


def test_lp_json_report_shape(tmp_path, capsys):
    # Every LP command that checks a point prints the same report fields in
    # the same order; the point commands put the values first.
    gf = graph_file(tmp_path, chain(1))
    bad = write(tmp_path, "t.json", '{"x_1_0": 0, "x_1_1": "1/2"}')
    assert main(["lp", "verify", "pebbling", "--graph", gf, bad, "--horizon", "1", "--json"]) == 1
    assert capsys.readouterr().out == (
        '{\n  "feasible": false,\n  "objective": "1/2",\n'
        '  "violated": [\n    [\n      "sink_1",\n      "-1/2"\n    ]\n  ]\n}\n'
    )
    assert main(["lp", "frac-reducible", "--graph", gf, "1", "--json"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "values": {\n    "s_1": "1",\n    "d_1_1": "0"\n  },\n'
        '  "feasible": true,\n  "objective": "1",\n  "violated": []\n}\n'
    )


@pytest.mark.parametrize(
    "command, text",
    [
        (["depth", "--graph", "{input}"], "[[1, 2]]"),
        (["lp", "verify", "pebbling", "--graph", "{graph}", "{input}"], "[0, 1]"),
        (["lp", "verify", "pebbling", "--graph", "{graph}", "{input}"], '{"values": [0, 1]}'),
        (["pebble-check", "--graph", "{graph}", "{input}"], "[0, 1]"),
        (["cost", "{input}"], "[0, 1]"),
        (["b2lc-solve", "{input}"], "[0, 1]"),
        (["3part-solve", "{input}"], "[0, 1]"),
        (["reduce", "vc", "{input}"], "[1, 2]"),
        (["reduce", "vc", "{input}"], '{"n": 3, "edges": 5}'),
        (["gen", "complete", "1", "2"], ""),
        (["gen", "pyramid", "2", "3"], ""),
        (["pcc", "--graph", "{graph}", "--max-states", "-5"], ""),
        (["lp", "gap", "--graph", "{graph}", "--time-budget", "-1"], ""),
    ],
)
def test_malformed_input_is_usage_error(tmp_path, capsys, command, text):
    paths = {"{graph}": graph_file(tmp_path, chain(1)), "{input}": write(tmp_path, "in.json", text)}
    assert main([paths.get(arg, arg) for arg in command]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_lp_gap(tmp_path, capsys):
    gf = graph_file(tmp_path, chain(8))
    assert main(["lp", "gap", "--graph", gf, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pcc"] == 8 and data["fractional_objective"] == "37/2"
    assert data["ratio"] == "16/37"


def test_verify_paper_subset_passes(capsys):
    rc = main(["verify-paper", "counterexample-upper", "space-bounds", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert [d["name"] for d in data] == ["counterexample-upper", "space-bounds"]
    assert [d["budget"] for d in data] == [1.0, 120.0]
    assert all(d["passed"] for d in data)
    assert [list(d) for d in data] == [[f.name for f in fields(acceptance.CheckOutcome)]] * 2
    assert all(d["elapsed"] == round(d["elapsed"], 3) for d in data)


def test_verify_paper_reports_failing_check(monkeypatch, capsys):
    failing = ("always-fails", 1.0, lambda: (False, "deliberate failure detail"))
    monkeypatch.setattr(acceptance, "ACCEPTANCE_CHECKS", acceptance.ACCEPTANCE_CHECKS + (failing,))
    assert main(["verify-paper", "always-fails"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL")
    assert "deliberate failure detail" in out


def test_verify_paper_unknown_check_is_usage_error(capsys):
    assert main(["verify-paper", "not-a-check"]) == 2
    assert "unknown checks" in capsys.readouterr().err


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["depth", "--graph", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


# Every subcommand but verify-paper (its output carries elapsed times), over
# fixed inputs. Placeholders in braces name the input files below; True marks
# commands that also run with --json.
PINNED_COMMANDS = [
    (["gen", "chain", "4"], False),
    (["gen", "pyramid", "3"], False),
    (["gen", "complete", "3"], False),
    (["gen", "layered_random", "6", "--seed", "2"], False),
    (["gen", "chain", "x"], False),
    (["depth", "--graph", "{pyr3}"], True),
    (["depth", "--graph", "{lr7}", "--convention", "edges"], True),
    (["depth", "--graph", "{bad}"], True),
    (["pebble-check", "--graph", "{chain3}", "{legal}"], True),
    (["pebble-check", "--graph", "{chain3}", "{illegal}"], True),
    (["cost", "{legal}"], True),
    (["pcc", "--graph", "{pyr3}"], True),
    (["pcc", "--graph", "{lr7}", "--mode", "sequential"], True),
    (["pcc", "--graph", "{ce16}", "--max-states", "50"], True),
    (["pcc-bounded", "--graph", "{pyr3}", "--horizon", "4"], True),
    (["pcc-bounded", "--graph", "{chain3}", "--horizon", "2"], True),
    (["min-st", "--graph", "{pyr2}"], True),
    (["min-space", "--graph", "{pyr2}", "--mode", "sequential"], True),
    (["b2lc-solve", "{b2lc_yes}"], True),
    (["b2lc-solve", "{b2lc_no}"], True),
    (["3part-solve", "{tp_yes}"], True),
    (["3part-solve", "{tp_no}"], True),
    (["reduce", "3part-to-b2lc", "{tp_yes}"], False),
    (["reduce", "b2lc-to-graph", "--tau", "2", "{b2lc_yes}"], False),
    (["reduce", "vc", "{vc}"], False),
    (["reduce", "vc", "{vc}", "--convention", "edges"], False),
    (["reduce", "indeg", "--graph", "{lr7}"], False),
    (["reduce", "append-chain", "--graph", "{chain3}", "2"], False),
    (["reduce", "append-chain", "--graph", "{chain3}"], False),
    (["reduce", "counterexample"], False),
    (["depth-check", "--graph", "{chain5}", "2"], True),
    (["depth-check", "--graph", "{chain5}", "2", "1"], True),
    (["depth-check", "--graph", "{chain5}", "1", "1"], True),
    (["depth-check", "--graph", "{pyr3}", "1", "--convention", "edges"], True),
    (["lp", "build-pebbling", "--graph", "{chain3}", "--horizon", "4"], True),
    (["lp", "build-pebbling", "--graph", "{pyr2}"], True),
    (["lp", "build-reducible", "--graph", "{pyr3}", "2"], True),
    (["lp", "emit", "pebbling", "--graph", "{chain3}", "--horizon", "3"], False),
    (["lp", "emit", "reducible", "--graph", "{pyr2}", "--d", "1"], False),
    (["lp", "emit", "reducible", "--graph", "{pyr2}"], False),
    (["lp", "relax", "pebbling", "--graph", "{pyr2}", "--horizon", "3"], False),
    (["lp", "frac-pebbling", "--graph", "{chain5}"], True),
    (["lp", "frac-pebbling", "--graph", "{pyr3}", "--horizon", "10"], True),
    (["lp", "frac-timed", "--graph", "{chain3}"], True),
    (["lp", "frac-timed", "--graph", "{ce16}"], True),
    (["lp", "frac-reducible", "--graph", "{chain5}", "2"], True),
    (["lp", "verify", "pebbling", "--graph", "{chain1}", "{sol_good}", "--horizon", "1"], True),
    (["lp", "verify", "pebbling", "--graph", "{chain1}", "{sol_bad}", "--horizon", "1"], True),
    (["lp", "gap", "--graph", "{chain5}"], True),
    (["lp", "gap", "--graph", "{lr7}", "--seed", "40"], True),
]


def test_cli_output_is_pinned(tmp_path, capsys):
    graphs = {
        "chain1": chain(1),
        "chain3": chain(3),
        "chain5": chain(5),
        "pyr2": pyramid(2),
        "pyr3": pyramid(3),
        "lr7": layered_random(7, 2),
        "ce16": counterexample_dag(),
    }
    texts = {
        "bad": "[[1, 2]]",
        "legal": '{"mode": "parallel", "rounds": [[1], [2], [3]]}',
        "illegal": '{"mode": "parallel", "rounds": [[1], [3]]}',
        "b2lc_yes": '{"n_vars": 2, "m": 2, "equations": [[1, 1, 2], [1, 2, 2]]}',
        "b2lc_no": '{"n_vars": 2, "m": 1, "equations": [[1, 1, 2], [2, 1, 1]]}',
        "tp_yes": '{"n": 2, "elements": [1, 2, 3, 1, 1, 4]}',
        "tp_no": '{"n": 2, "elements": [1, 1, 1, 1, 1, 7]}',
        "vc": '{"n": 3, "edges": [[1, 2], [2, 3]]}',
        "sol_good": '{"values": {"x_1_0": 0, "x_1_1": 1}}',
        "sol_bad": '{"x_1_0": 0, "x_1_1": "1/2"}',
    }
    files = {f"{{{k}}}": graph_file(tmp_path, g, f"{k}.json") for k, g in graphs.items()}
    files.update({f"{{{k}}}": write(tmp_path, f"{k}.json", t) for k, t in texts.items()})
    record = []
    for command, has_json in PINNED_COMMANDS:
        for argv in (command, command + ["--json"]) if has_json else (command,):
            rc = main([files.get(arg, arg) for arg in argv])
            out, err = capsys.readouterr()
            record.append(f"{argv}\n{rc}\n{out}\0{err}\0")
    digest = hashlib.sha256("".join(record).encode()).hexdigest()
    assert digest == "dd3f5919459234c90d6ff404912407f2dc190ec8a304f373aec2cc6fb8d92ca2"


def test_pcc_bounded_seed_is_a_cost_cap(tmp_path, capsys):
    gf = graph_file(tmp_path, counterexample_dag())
    argv = ["pcc-bounded", "--graph", gf, "--horizon", "16", "--seed"]
    assert main(argv + ["27"]) == 1
    assert capsys.readouterr().err.strip() == (
        "infeasible: no legal pebbling within 16 rounds under cost cap 27"
    )
    assert main(argv + ["28"]) == 0
    assert capsys.readouterr().out.startswith("bounded_cc = 28 ")
    # pcc reads --seed the same way: ce16's optimum with no horizon is 27
    argv = ["pcc", "--graph", gf, "--seed"]
    assert main(argv + ["26"]) == 1
    assert capsys.readouterr().err.strip() == "infeasible: no legal pebbling under cost cap 26"
    assert main(argv + ["27"]) == 0
    assert capsys.readouterr().out.startswith("pcc = 27 ")


# sha256 of format_help() for the root parser (key "") and every subparser,
# at a fixed width of 80 columns.
HELP_DIGESTS = {
    "": "4f098676f0918b7b7c7aac7d328ee3ed407313960e92803ab5dfafc8e133157e",
    "gen": "e25d156f397aa47202731d440b0b8535093308f7add6cb22460580343e36358c",
    "depth": "b086c4e4d70880f343a06e72c73e396210169f6c79e89d8b09d6d21a1143f0a0",
    "pebble-check": "eee4a7c995656a7d205c3a71e2688e086017293834c5d7e3f8c62d87251738ea",
    "cost": "9bd732e528f5060b39a0c406d601b35769447e7242564ad6b705fd9c91042617",
    "pcc": "71b29266e0384c487ccaa429f0fa63894603ca973626cd5f6fcfb5f67eed3c1a",
    "pcc-bounded": "25e64bf952b42d27975f156d932960b0a9bc57c878c3370aa30bdb4eaec43a6f",
    "min-st": "7296381bd5c973e817b737bea4f9a5a32123dba4610204358231823940cec04c",
    "min-space": "3c6a9dd8d06b9a9c45dc0451297c2c6922f914535eedda46fa9c3d8420c4a1f1",
    "b2lc-solve": "d6341875cc7ed43f2392eeb7f6131f8fa8a52eaa9ac714132477876c8dcede52",
    "3part-solve": "0527a81f0ae113e55b5982029868bae34032eabd6299aab6cb4761c5e9190ce8",
    "reduce": "6b280aa9eb5304b6e612d3a92d32b9dc55579ba51c7708977a1f4ad900337aa5",
    "reduce 3part-to-b2lc": "5161861935cbcbd80e3220993f013a1166484075e8459a9ee02ed19b4b8145a4",
    "reduce b2lc-to-graph": "6e2ffc2fdef126969d8f9112260972564b246a62ba95a7ffe553344627a02918",
    "reduce vc": "2edc4aff8e25ea8c65425266cd62fd1017b7cee81c3fceeea3e3e3467ef4e2a3",
    "reduce indeg": "03d8323672f278f999fd124894a1e03087952bfcc6c333c53e6e676953710ac0",
    "reduce append-chain": "5ac5786d03695208475b66d25b8d3335719c70dc9537f398f9f3f5945003750f",
    "reduce counterexample": "f8da161fb9ec279405b3f81ba532b137dece452a79e1a6342186332387adb1fb",
    "depth-check": "0dd81aef81a2504279a37d914ed5e964f42dc5a2b6342ed5a5b2df6343ebd089",
    "lp": "e7b2ef53c300dc8f41b56a8e85356e07140116e33e534eac28e4bc9c0c4e7f57",
    "lp build-pebbling": "75c2193ef4a92ebbeb0f5f3fd713028dc727c76c238a327a497bc59ddf12a935",
    "lp build-reducible": "af30f863963b32842273e94a9cab71a19aee02e10f9567d110c194336b1a8ec3",
    "lp emit": "60a8d2aab59f5ddadf379f0b04d79ef74d04910ff27cb4e73ff0f90f7f07224d",
    "lp relax": "07b99bd45fea62557b399cffa2b62a2c8dff2594f19c38f6c366bd5e4e10980b",
    "lp frac-pebbling": "a4c267c70abd2e4cd66dca46b9e5a8fc86533b1fae198d09c22b5f5232b62798",
    "lp frac-timed": "e43184a749f740b9dc332e976a556569fedc2c8ff8a97e79988c116b7a191a3a",
    "lp frac-reducible": "e3846179a649c946a55e3db7d4dd8ecd862f591be49d8bf5ebbde5522c80b06b",
    "lp verify": "e8585642b398bdc55df59c9e0ac142f35b3bdd2b9ffc9989054a7e957a1e4f7a",
    "lp gap": "05acd33344777a1075ddad740f94b7ca420da441ad15c69bcabd83719326a340",
    "verify-paper": "3c3bd43dc5b0f5305d4ce158e583ef8bea31fdf7e677c0f071c2678dba03dfe0",
}


def _help_texts(parser, path=()):
    yield " ".join(path), parser.format_help()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _help_texts(sub, path + (name,))


def test_help_is_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    digests = {
        path: hashlib.sha256(text.encode()).hexdigest()
        for path, text in _help_texts(build_parser())
    }
    assert digests == HELP_DIGESTS


def _readme_examples():
    """Each `$ pebblecc ...` line in README.md, as argv, with the text the
    README shows under it, up to the next prompt or the end of the block."""
    examples = []
    current = None
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines():
        if line.startswith("```"):
            current = None
        elif line.startswith("$ pebblecc "):
            current = (shlex.split(line)[2:], [])
            examples.append(current)
        elif current is not None:
            current[1].append(line)
    return [(argv, "\n".join(shown)) for argv, shown in examples]


def test_readme_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    graph_file(tmp_path, counterexample_dag(), "ce16.json")
    graph_file(tmp_path, pyramid(4), "pyr4.json")
    graph_file(tmp_path, chain(4), "c4.json")
    examples = _readme_examples()
    assert len(examples) >= 3
    for argv, shown in examples:
        main(argv)
        out, err = capsys.readouterr()
        assert (out + err).strip() == shown, argv


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pebblecc", "gen", "chain", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 3
