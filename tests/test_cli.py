import argparse
import gc
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from angulated import (
    Angle,
    Morphism,
    SumObject,
    ar_angle,
    basis_mor,
    join_pos,
    min_angle,
    shift_obj,
    validate_params,
)
from angulated.cli import angle_doc, main, parse_object

from test_verify import RAISING_PLANTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ARGS449 = ("--d", "4", "--l", "4", "--m", "9")


class TestObjectSyntax:
    def test_parse_forms(self, p449):
        assert parse_object(p449, "f4") == 4
        assert parse_object(p449, "s-1:f4") == -8
        assert parse_object(p449, "s2:f1") == 25
        assert parse_object(p449, "p-8") == -8

    def test_bad_index(self, p449):
        from angulated import BadDistance

        with pytest.raises(BadDistance):
            parse_object(p449, "f13")


class TestParamsCommand:
    def test_json(self, capsys):
        code, out, _ = run(capsys, *ARGS449, "params")
        assert code == 0
        assert json.loads(out) == {"d": 4, "l": 4, "m": 9, "period": 12}

    def test_invalid_params_exit_one(self, capsys):
        code, out, err = run(capsys, "--d", "3", "--l", "2", "--m", "4", "params")
        assert code == 1
        assert json.loads(err)["error"] == "ConstraintViolation"

    def test_missing_params_exit_two(self, capsys):
        code, _, _ = run(capsys, "--d", "4", "params")
        assert code == 2


class TestQueries:
    def test_hom(self, capsys):
        code, out, _ = run(capsys, *ARGS449, "hom", "f1", "f4")
        assert code == 0 and json.loads(out)["dim"] == 1
        code, out, _ = run(capsys, *ARGS449, "hom", "f1", "f5")
        assert code == 0 and json.loads(out)["dim"] == 0

    def test_compose_vanishing(self, capsys):
        code, out, _ = run(capsys, *ARGS449, "compose", "f1", "f4", "f5")
        assert code == 0
        assert json.loads(out)["entries"] == [["0/1"]]

    def test_compose_surviving(self, capsys):
        code, out, _ = run(capsys, *ARGS449, "compose", "f1", "f2", "f3")
        assert json.loads(out)["entries"] == [["1/1"]]

    def test_angle_matches_library(self, capsys, p449):
        code, out, _ = run(capsys, *ARGS449, "angle", "f3", "f6")
        assert code == 0
        assert json.loads(out) == angle_doc(min_angle(basis_mor(p449, 3, 6)))

    def test_zero_hom_domain_error(self, capsys):
        code, _, err = run(capsys, *ARGS449, "angle", "f1", "f5")
        assert code == 1
        assert json.loads(err)["error"] == "ZeroHom"

    def test_chains(self, capsys):
        code, out, _ = run(capsys, *ARGS449, "dkernel", "3", "6")
        doc = json.loads(out)
        assert doc["kind"] == "kernel"
        assert doc["objects"][3] == [{"shift": 0, "index": 2}]
        code, out, _ = run(capsys, *ARGS449, "dexact", "9", "10")
        assert [o[0]["index"] for o in json.loads(out)["objects"]] == [1, 2, 5, 6, 9, 10]

    def test_bad_chain_distance(self, capsys):
        code, _, err = run(capsys, *ARGS449, "dexact", "1", "5")
        assert code == 1
        assert json.loads(err)["error"] == "BadDistance"


class TestArAndCover:
    def test_ambient_ar(self, capsys, p449):
        code, out, _ = run(capsys, *ARGS449, "ar", "f5")
        assert code == 0
        doc = json.loads(out)
        assert doc == angle_doc(ar_angle(p449, 5))
        assert doc["objects"][0] == [{"shift": -1, "index": 8}]

    def test_subcategory_ar(self, capsys):
        code, out, _ = run(capsys, *ARGS449, "ar", "f1", "--sub", "1,2,5,6,9,10")
        shifts = [(o[0]["shift"], o[0]["index"]) for o in json.loads(out)["objects"]]
        assert shifts == [(-1, 2), (-1, 5), (-1, 6), (-1, 9), (-1, 10), (0, 1)]

    def test_subcategory_gate(self, capsys):
        code, _, err = run(capsys, *ARGS449, "ar", "f1", "--sub", "1,2")
        assert code == 1
        assert json.loads(err)["error"] == "NotWide"

    def test_cover(self, capsys):
        code, out, _ = run(
            capsys, *ARGS449, "cover", "--sub", "1,2,5,6,9,10", "s-1:f4"
        )
        assert code == 0
        assert json.loads(out)["source"] == [{"shift": -1, "index": 2}]

    def test_empty_spec(self, capsys):
        # an empty --sub is the empty subcategory: f1 is no member, and the
        # cover of f1 is the zero map
        code, out, err = run(capsys, *ARGS449, "ar", "f1", "--sub", "")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "NotMember"
        code, out, _ = run(capsys, *ARGS449, "cover", "f1", "--sub", "")
        doc = json.loads(out)
        assert code == 0 and doc["sub"] == [] and doc["source"] == []
        assert doc["morphism"]["entries"] == [[]]


class TestWideCommands:
    def test_list_smallest(self, capsys):
        code, out, _ = run(capsys, "--d", "2", "--l", "2", "--m", "3", "wide", "list")
        doc = json.loads(out)
        assert code == 0 and doc["count"] == 8
        assert [] in doc["specs"] and [1, 2, 3, 4] in doc["specs"]

    def test_check(self, capsys):
        code, out, _ = run(capsys, *ARGS449, "wide", "check", "1,2,5,6,9,10")
        doc = json.loads(out)
        assert doc["wide"] and doc["periodic"] and doc["oracle"] and doc["agree"]
        code, out, _ = run(capsys, *ARGS449, "wide", "check", "1,2")
        assert not json.loads(out)["wide"]


class TestVerifyCommand:
    def test_core_suite_passes(self, capsys):
        code, out, _ = run(capsys, "--d", "2", "--l", "2", "--m", "3", "verify", "core")
        doc = json.loads(out)
        assert code == 0 and doc["ok"]
        assert all(c["ok"] for c in doc["checks"])

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "--d", "2", "--l", "2", "--m", "3", "--format", "text",
            "verify", "wide",
        )
        assert code == 0
        assert "overall: PASS" in out

    @pytest.mark.parametrize("plant", RAISING_PLANTS)
    def test_a_raising_plant_is_a_failed_check(self, capsys, monkeypatch, plant):
        # a defect that raises reaches the user as failed checks in the
        # verify document, never as a traceback or an error document
        owner, name, replacement, failing = RAISING_PLANTS[plant]
        monkeypatch.setattr(owner, name, replacement)
        code, out, err = run(capsys, *ARGS449, "verify", "all")
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert doc["ok"] is False
        assert {c["name"]: c["detail"] for c in doc["checks"] if not c["ok"]} == failing

    def test_text_appends_a_detail_only_where_there_is_one(self, capsys, monkeypatch):
        owner, name, replacement, failing = RAISING_PLANTS["cover-stops-at-index-1"]
        monkeypatch.setattr(owner, name, replacement)
        code, out, _ = run(capsys, *ARGS449, "--format", "text", "verify", "ar")
        assert code == 1
        assert out.splitlines() == [
            "[PASS] ambient AR angles pass all oracle tests",
            *(f"[FAIL] {name}: {detail}" for name, detail in failing.items()),
            "overall: FAIL",
        ]

    def test_all_suites_pass_with_asserts_stripped(self):
        # python -O drops assert statements; invariants must survive it
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "angulated.cli",
             "--d", "2", "--l", "2", "--m", "3", "verify", "all"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"]


class TestQuiverCommand:
    def test_dot_window(self, capsys):
        code, out, _ = run(
            capsys, *ARGS449, "--format", "dot",
            "quiver", "--from", "f1", "--to", "f6", "--sub", "1,5,9",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "digraph quiver {"
        assert sum("->" in ln for ln in lines) == 5  # linear chain, a DAG
        assert '  s0_f1 [label="f1", style=filled];' in lines
        assert '  s0_f2 [label="f2"];' in lines

    def test_default_window_is_one_period(self, capsys):
        code, out, _ = run(capsys, *ARGS449, "quiver")
        doc = json.loads(out)
        assert doc["window"] == [1, 12]

    def test_dot_refused_elsewhere(self, capsys):
        code, _, _ = run(capsys, *ARGS449, "--format", "dot", "ar", "f5")
        assert code == 2


def doc_to_angle(doc: dict) -> Angle:
    """Inverse of `angle_doc`; validates the angle on reconstruction."""
    p = validate_params(doc["params"]["d"], doc["params"]["l"], doc["params"]["m"])
    objects = [
        SumObject(tuple(join_pos(p, s["shift"], s["index"]) for s in o))
        for o in doc["objects"]
    ]
    targets = objects[1:] + [shift_obj(p, objects[0], 1)]
    maps = []
    for k, mdoc in enumerate(doc["maps"]):
        ents = tuple(tuple(Fraction(e) for e in row) for row in mdoc["entries"])
        maps.append(Morphism(p, objects[k], targets[k], ents))
    return Angle(p, tuple(objects), tuple(maps))


class TestJsonRoundTrip:
    def test_angle_docs_round_trip_byte_identical(self, p449):
        for a in (ar_angle(p449, 5), min_angle(basis_mor(p449, 3, 6))):
            emitted = json.dumps(angle_doc(a))
            reparsed = doc_to_angle(json.loads(emitted))
            assert reparsed == a
            assert json.dumps(angle_doc(reparsed)) == emitted

    def test_degenerate_angle_round_trip(self, p449):
        from angulated import SubcatSpec, ar_angle_in

        a = ar_angle_in(SubcatSpec(p449, (1, 5, 9)), 5)
        emitted = json.dumps(angle_doc(a))
        assert json.dumps(angle_doc(doc_to_angle(json.loads(emitted)))) == emitted

    def test_out_of_window_index_is_a_domain_error(self, p449):
        from angulated import DomainError

        doc = angle_doc(ar_angle(p449, 5))
        doc["objects"][0][0]["index"] = 13
        with pytest.raises(DomainError, match="outside"):
            doc_to_angle(doc)


class TestReadmeExamples:
    def test_every_documented_command_runs_as_shown(self, capsys):
        import pathlib
        import re

        readme = pathlib.Path(__file__).parent.parent / "README.md"
        blocks = re.findall(r"```\n(\$ angulated .*?)```", readme.read_text(), re.S)
        assert blocks, "no command examples found in README"
        ran = 0
        for block in blocks:
            lines = block.rstrip().splitlines()
            i = 0
            while i < len(lines):
                assert lines[i].startswith("$ angulated ")
                argv = lines[i][len("$ angulated "):].split()
                expected = []
                i += 1
                while i < len(lines) and not lines[i].startswith("$ "):
                    expected.append(lines[i])
                    i += 1
                code = main(argv)
                out = capsys.readouterr().out
                assert code == 0, argv
                assert out.rstrip("\n").splitlines() == expected, argv
                ran += 1
        assert ran >= 12

    def test_every_python_example_runs(self):
        import pathlib
        import re

        readme = pathlib.Path(__file__).parent.parent / "README.md"
        blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
        assert blocks, "no Python examples found in README"
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})

    def test_every_subcommand_has_an_example(self):
        import argparse
        import pathlib
        import re

        from angulated.cli import _build_parser

        parser = _build_parser()
        (subparsers,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        readme = pathlib.Path(__file__).parent.parent / "README.md"
        examples = re.findall(r"^\$ angulated (.*)$", readme.read_text(), re.M)
        shown = {parser.parse_args(line.split()).command for line in examples}
        assert sorted(set(subparsers.choices) - shown) == []


class TestExitCodes:
    """The exit-code contract: 0 on an answer, 1 on a domain error or a
    failing suite, 2 on a usage or configuration error."""

    @pytest.mark.parametrize("config, argv", [
        (None, ("hom", "foo", "f1")),
        (None, ("quiver", "--from", "f6", "--to", "f1")),
        (None, ("wide", "check")),
        (None, ("cover", "f7")),
        (None, ("nosuch",)),
        ("d=four\nl=4\nm=9\n", ("params",)),
        ("d=4\nl=4\nm=9\nformat=yaml\n", ("params",)),
        ("d=4\nl=4\nm=9\njunk\n", ("params",)),
    ], ids=["bad object", "reversed window", "check without spec",
            "cover without sub", "unknown subcommand", "config d=four",
            "config format=yaml", "config line without ="])
    def test_usage_errors_exit_two(self, capsys, tmp_path, config, argv):
        if config is None:
            prefix = ARGS449
        else:
            cfg = tmp_path / "family.cfg"
            cfg.write_text(config)
            prefix = ("--config", str(cfg))
        code, out, err = run(capsys, *prefix, *argv)
        assert code == 2
        assert out == "" and err != ""

    def test_dot_check_precedes_parameter_validation(self, capsys):
        code, _, err = run(
            capsys, "--d", "3", "--l", "2", "--m", "4", "--format", "dot", "params"
        )
        assert code == 2
        assert "dot output is only available" in err

    def test_help_exits_zero_with_usage_on_stdout(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: angulated")

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        from angulated import verify

        monkeypatch.setitem(
            verify.SUITES, "core", lambda params: [verify.Check("planted", False)]
        )
        code, out, _ = run(capsys, *ARGS449, "verify", "core")
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["checks"] == [{"name": "planted", "ok": False, "detail": ""}]

    @pytest.mark.parametrize("argv", [
        ("ar", "f1", "--sub", "0,5"),
        ("cover", "f7", "--sub", "13"),
        ("wide", "check", "13"),
    ])
    def test_out_of_window_index_is_a_domain_error(self, capsys, argv):
        # a token that parses but lies outside [1, period] exits 1, as an
        # out-of-window object argument does; a token that does not parse
        # exits 2
        code, out, err = run(capsys, *ARGS449, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "BadDistance"

    def test_out_of_window_index_is_refused_with_one_document(self, capsys):
        # an object, a --sub index and a wide spec index are checked by
        # the same range rule, so index 13 at period 12 reads the same
        docs = []
        for argv in (("hom", "f13", "f1"), ("cover", "f7", "--sub", "13"), ("wide", "check", "13")):
            code, out, err = run(capsys, *ARGS449, *argv)
            assert code == 1 and out == ""
            docs.append(err)
        assert docs == ['{"error": "BadDistance", "message": "index 13 outside [1, 12]"}\n'] * 3

    def test_wide_list_refuses_a_spec(self, capsys):
        code, out, err = run(capsys, *ARGS449, "wide", "list", "1")
        assert code == 2 and out == ""
        assert "wide list takes no spec argument" in err

    def test_unparsable_spec_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, *ARGS449, "ar", "f1", "--sub", "1,x")
        assert code == 2
        assert "cannot parse subcategory spec" in err

    def test_closed_stdout_exits_one_without_a_traceback(self):
        # the 186,584-byte document overflows the pipe buffer, so the
        # reader's early close breaks the write itself
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "angulated.cli",
             "--d", "2", "--l", "12", "--m", "13", "wide", "list"],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(20)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert head.startswith(b"{") and err == ""


class TestConfigFile:
    def test_config_supplies_params(self, capsys, tmp_path):
        cfg = tmp_path / "family.cfg"
        cfg.write_text("# comment\nd = 4\nl = 4\nm = 9\nformat = text\n")
        code, out, _ = run(capsys, "--config", str(cfg), "params")
        assert code == 0
        assert out.strip() == "d=4 l=4 m=9 period=12"

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "family.cfg"
        cfg.write_text("d=2\nl=2\nm=3\n")
        code, out, _ = run(capsys, "--config", str(cfg), "--m", "3", "params")
        assert code == 0
        assert json.loads(out)["period"] == 4

    def test_unknown_key_exit_two(self, capsys, tmp_path):
        # `sub` is not a config key: a config file cannot pick a subcategory
        cfg = tmp_path / "family.cfg"
        for extra in ("bogus=1", "sub=1,5,9"):
            cfg.write_text(f"d=4\nl=4\nm=9\n{extra}\n")
            code, _, err = run(capsys, "--config", str(cfg), "ar", "f5")
            assert code == 2
            assert "unknown config key" in err

    def test_missing_file_exit_two(self, capsys, tmp_path):
        code, _, _ = run(capsys, "--config", str(tmp_path / "nope.cfg"), "params")
        assert code == 2

    def test_byte_order_mark_is_not_part_of_the_first_key(self, capsys, tmp_path):
        # editors may save UTF-8 with a leading byte-order mark
        cfg = tmp_path / "family.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfd=4\nl=4\nm=9\n")
        code, out, _ = run(capsys, "--config", str(cfg), "params")
        assert code == 0
        assert json.loads(out)["period"] == 12

    def test_undecodable_file_exit_two(self, capsys, tmp_path):
        # a config file is read as UTF-8; a byte that does not decode is a
        # configuration error, not a traceback
        cfg = tmp_path / "family.cfg"
        cfg.write_bytes(b"d=4\n\xff\n")
        code, out, err = run(capsys, "--config", str(cfg), "params")
        assert code == 2
        assert out == "" and err.startswith("error: cannot read config file: ")


class TestParserBuiltOnce:
    """`main` builds its parser on the first call and reuses it after."""

    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        run(capsys, *ARGS449, "hom", "f1", "f3")
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        code, out, _ = run(capsys, *ARGS449, "hom", "f1", "f3")
        assert code == 0 and json.loads(out)["dim"] == 1
        assert built == []

    def test_usage_error_and_help_do_not_change_the_next_call(self, capsys):
        argv = (*ARGS449, "--format", "text", "ar", "f9", "--sub", "1,5,9")
        code, _, _ = run(capsys, *ARGS449, "hom", "foo", "f1")
        assert code == 2
        code, _, _ = run(capsys, "--help")
        assert code == 0
        got = run(capsys, *argv)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        fresh = subprocess.run(
            [sys.executable, "-m", "angulated.cli", *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True,
        )
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr)

    def test_config_settings_do_not_leak(self, capsys, tmp_path):
        cfg = tmp_path / "family.cfg"
        cfg.write_text("d=2\nl=2\nm=3\nformat=text\n")
        code, out, _ = run(capsys, "--config", str(cfg), "params")
        assert code == 0 and out.strip() == "d=2 l=2 m=3 period=4"
        code, out, err = run(capsys, "params")
        assert code == 2 and out == ""
        assert "parameters --d, --l, --m are required" in err
        code, out, _ = run(capsys, *ARGS449, "params")
        assert code == 0
        assert json.loads(out) == {"d": 4, "l": 4, "m": 9, "period": 12}


GARBAGE_CALLS = [
    ("params",),
    ("hom", "f1", "f3"),
    ("compose", "f1", "f2", "f3"),
    ("angle", "f1", "f3"),
    ("dkernel", "3", "6"),
    ("dcokernel", "3", "6"),
    ("dexact", "2", "4"),
    ("ar", "f5"),
    ("ar", "f9", "--sub", "1,5,9"),
    ("cover", "f7", "--sub", "1,5,9"),
    ("wide", "list"),
    ("wide", "check", "1,2,5,6,9,10"),
    ("quiver", "--from", "f1", "--to", "f6"),
    ("--format", "dot", "quiver"),
    ("--format", "text", "verify", "core"),
    # domain errors, exit 1
    ("angle", "f1", "f5"),
    ("hom", "f13", "f1"),
    ("ar", "f1", "--sub", "1,2"),
    ("cover", "f7", "--sub", "13"),
]


@pytest.mark.parametrize(
    "argv", GARBAGE_CALLS, ids=[" ".join(a) for a in GARBAGE_CALLS]
)
def test_main_leaves_no_cyclic_garbage(capsys, argv):
    # the 2,2,3 triple keeps `verify core` small; the rest run at 4,4,9
    prefix = ("--d", "2", "--l", "2", "--m", "3") if "verify" in argv else ARGS449
    run(capsys, *prefix, *argv)  # warm-up: first-use caches are not garbage
    gc.collect()
    gc.disable()
    try:
        main([*prefix, *argv])
        found = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert found == 0
