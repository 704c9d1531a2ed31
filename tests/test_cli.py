"""Command-line contract: exit codes, schema-valid JSON, byte-identical
reruns, and the weights-source exclusivity rule."""

import argparse
import gc
import io
import json
import os
import subprocess
import sys

import jsonschema
import pytest

from conftest import child_env
import parmirror
from parmirror import kernels, moduli, schemas
from parmirror.chambers import Wall, enumerate_walls, sample_generic_weights
from parmirror.cli import SUBCOMMANDS, build_parser, main, subcommand_parser
from parmirror.exactpoly import NonIntegralCoefficientError
from parmirror.moduli import ModuliParams


def _run_json(tmp_path, name, argv):
    out = tmp_path / f"{name}.json"
    code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_lemma_prints_720(capsys):
    assert main(["lemma", "--n", "7"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "720"


def test_lemma_json(tmp_path):
    code, data = _run_json(tmp_path, "lemma", ["lemma", "--n", "5"])
    assert code == 0
    jsonschema.validate(data, schemas.load("lemma"))
    assert data["residue_counts"] == [24, 24, 24, 24, 24]
    assert data["uniform"] and data["insertions_ok"]
    assert data["insertions_checked"] == 24


@pytest.mark.parametrize("n", [0, -3])
def test_lemma_rank_out_of_range_is_usage_error(tmp_path, capsys, n):
    out = tmp_path / "lemma.json"
    assert main(["lemma", "--n", str(n), "--out", str(out)]) == 2
    assert not out.exists()
    assert "1 <= n <= 10" in capsys.readouterr().err


def test_nonprime_rank_is_usage_error(capsys):
    assert main(["tms", "--n", "4", "--g", "2", "--marked", "1"]) == 2
    assert "not prime" in capsys.readouterr().err


def test_non_integral_result_exits_1(monkeypatch, capsys):
    # A computed quantity that fails to be integral is a mathematical
    # failure; every tms run checks that the Hitchin base dimension is one.
    def not_integral(q, what):
        raise NonIntegralCoefficientError(f"{what} = {q} is not an integer")

    monkeypatch.setattr(moduli, "_as_int", not_integral)
    assert main(["tms", "--n", "3", "--g", "2", "--marked", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_out_of_memory_exits_2(monkeypatch, capsys):
    """Running out of memory is not an identity failure: the census kernel
    raising MemoryError gives exit 2 and one error line, no traceback."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(kernels, "enumerate_census", exhausted)
    assert main(["tms", "--n", "3", "--g", "2", "--marked", "1"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def test_bad_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["tms", "--rank", "2"])
    assert exc.value.code == 2


def test_threads_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "sweep"])
    assert exc.value.code == 2


# one argument list per subcommand, every flag set
PARSER_ARGV = {
    "tms": ["tms", "--n", "3", "--g", "2", "--marked", "2", "--deg", "1", "--seed", "4",
            "--scale", "1/8", "--out", "r.json", "--timings"],
    "sweep": ["sweep", "--config", "g.ini", "--out", "r.json", "--csv", "r.csv", "--timings"],
    "variant": ["variant", "--n", "5", "--g", "3", "--marked", "1", "--deg", "2",
                "--weights", "w.json", "--out", "r.json", "--csv", "c.csv"],
    "stringy": ["stringy", "--n", "3", "--g", "2", "--marked", "1", "--deg", "1", "--out", "r.json"],
    "walls": ["walls", "--n", "2", "--g", "2", "--marked", "2", "--seed", "3", "--out", "r.json"],
    "lemma": ["lemma", "--n", "6", "--out", "r.json"],
    "orbits": ["orbits", "--n", "3", "--g", "2", "--deg", "1", "--gamma", "0,1,0,0",
               "--l-gamma", "2", "--out", "r.json"],
    "section": ["section", "--n", "3", "--g", "2", "--marked", "1", "--out", "r.json"],
}


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_one_subcommand_parser_parses_as_the_full_one(name):
    argv = PARSER_ARGV[name]
    full = vars(build_parser().parse_args(argv))
    del full["subcommand"]
    assert vars(subcommand_parser(name).parse_args(argv[1:])) == full


def _help_output(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return capsys.readouterr()


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_one_subcommand_help_is_the_full_parsers(name, capsys):
    """A run's --help after a subcommand prints, byte for byte, what the
    full parser prints for the same argv."""
    argv = [name, "--help"]
    assert _help_output(capsys, main, argv) == _help_output(capsys, build_parser().parse_args, argv)


def test_named_subcommand_builds_one_parser(monkeypatch):
    """A run that names its subcommand constructs exactly one
    ArgumentParser: its own, not the full one and its eight subparsers."""
    built = []
    real = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert main(["lemma", "--n", "3"]) == 0
    assert built == ["parmirror lemma"]


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in SUBCOMMANDS)


def test_program_help_exits_0_quietly():
    """The ladder's startup rung: ``python -m parmirror.cli --help``, the
    interpreter, the imports, argparse and the exit, and nothing else."""
    proc = subprocess.run([sys.executable, "-m", "parmirror.cli", "--help"], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert all(name in proc.stdout for name in SUBCOMMANDS)


@pytest.fixture
def collector_events(monkeypatch):
    """Record, in order, calls of gc.freeze and of the lemma handler. The
    spy stands in for gc.freeze, so this process is never frozen."""
    events = []
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    help_line, handler, add_flags = SUBCOMMANDS["lemma"]

    def spy(args):
        events.append("handler")
        return handler(args)

    monkeypatch.setitem(SUBCOMMANDS, "lemma", (help_line, spy, add_flags))
    return events


def test_in_process_main_leaves_the_collector_alone(collector_events):
    state = gc.get_freeze_count(), gc.isenabled()
    assert main(["lemma", "--n", "3"]) == 0
    assert collector_events == ["handler"]
    assert (gc.get_freeze_count(), gc.isenabled()) == state


def test_program_main_freezes_the_heap_once_before_the_subcommand(collector_events, monkeypatch):
    """Run as the program (argv from sys.argv), main moves what the imports
    made to the permanent generation, so neither the run's collections nor
    the one at exit walks it."""
    monkeypatch.setattr(sys, "argv", ["parmirror", "lemma", "--n", "3"])
    assert main() == 0
    assert collector_events == ["freeze", "handler"]


def test_tms_report(tmp_path, capsys):
    code, data = _run_json(
        tmp_path,
        "tms",
        ["tms", "--n", "2", "--g", "2", "--marked", "1", "--deg", "0",
         "--seed", "7", "--scale", "1/1000"],
    )
    assert code == 0
    jsonschema.validate(data, schemas.load("tms_report"))
    assert data["equal"] is True
    assert "timing_ms" not in data
    assert "equal=true" in capsys.readouterr().out


def test_tms_timings_flag(tmp_path):
    code, data = _run_json(
        tmp_path,
        "tms_timed",
        ["tms", "--n", "2", "--g", "2", "--marked", "1", "--seed", "1", "--timings"],
    )
    assert code == 0
    assert set(data["timing_ms"]) == {
        "walls", "census", "bruteforce", "closed", "cyclotomic", "stringy",
    }
    jsonschema.validate(data, schemas.load("tms_report"))


def test_weights_file_and_sampler_conflict(tmp_path, capsys):
    w = sample_generic_weights(ModuliParams(2, 2, 1, 0), seed=2)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(w.to_jsonable()), encoding="utf-8")
    base = ["tms", "--n", "2", "--g", "2", "--marked", "1", "--weights", str(path)]
    assert main(base + ["--seed", "3"]) == 2
    assert "pick one source" in capsys.readouterr().err
    assert main(base) == 0


def test_weights_file_missing_is_usage_error(tmp_path):
    assert main(
        ["tms", "--n", "2", "--g", "2", "--marked", "1",
         "--weights", str(tmp_path / "nope.json")]
    ) == 2


@pytest.mark.parametrize("text", ['{}', '[1, 2]', '{"points": 5}'])
def test_malformed_weights_file_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "w.json"
    path.write_text(text, encoding="utf-8")
    assert main(["tms", "--n", "2", "--g", "2", "--marked", "1", "--weights", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: weights file {path}: ") and err.count("\n") == 1, err
    assert '{"points": [["num/den", ...], ...]}' in err


def test_json_number_weights_are_read_exactly(tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"points": [[0, 0.12345678901234567890], [0, 0.5]]}', encoding="utf-8")
    code, data = _run_json(
        tmp_path, "walls",
        ["walls", "--n", "2", "--g", "2", "--marked", "2", "--weights", str(path)],
    )
    assert code == 0
    assert data["weights"]["points"] == [
        ["0/1", "1234567890123456789/10000000000000000000"], ["0/1", "1/2"],
    ]


def test_variant_report_and_csv(tmp_path):
    csv_path = tmp_path / "census.csv"
    out = tmp_path / "variant.json"
    code = main(
        ["variant", "--n", "2", "--g", "2", "--marked", "1", "--seed", "5",
         "--out", str(out), "--csv", str(csv_path)]
    )
    assert code == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    jsonschema.validate(data, schemas.load("variant"))
    assert data["equal"] is True
    assert data["bruteforce"] == data["closed"] == data["cyclotomic"]
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "words,m,s,d_n,degree"
    assert len(lines) == data["component_count"] + 1


def test_stringy_report(tmp_path):
    code, data = _run_json(
        tmp_path, "stringy", ["stringy", "--n", "3", "--g", "2", "--marked", "1"]
    )
    assert code == 0
    jsonschema.validate(data, schemas.load("stringy"))
    assert data["fixed_locus_dim"] == 4
    assert data["fermionic_shift"] == 9
    assert data["orbit_count"] == 2


def test_walls_report_with_and_without_weights(tmp_path):
    code, bare = _run_json(
        tmp_path, "walls_bare", ["walls", "--n", "2", "--g", "2", "--marked", "2"]
    )
    assert code == 0
    jsonschema.validate(bare, schemas.load("walls"))
    assert "weights" not in bare and "generic" not in bare
    assert bare["count"] == len(bare["walls"]) > 0

    code, with_w = _run_json(
        tmp_path, "walls_w",
        ["walls", "--n", "2", "--g", "2", "--marked", "2", "--seed", "3"],
    )
    assert code == 0
    jsonschema.validate(with_w, schemas.load("walls"))
    assert with_w["generic"] is True


def test_walls_builds_its_wall_list_only_for_a_report(monkeypatch, tmp_path, capsys):
    """walls turns each wall into JSON only when --out asks for the report:
    no call without it, one per wall with it, and the same stdout both
    ways."""
    calls = []
    real = Wall.to_jsonable
    monkeypatch.setattr(Wall, "to_jsonable", lambda wall: calls.append(wall) or real(wall))
    argv = ["walls", "--n", "3", "--g", "2", "--marked", "2", "--seed", "1"]
    assert main(argv) == 0
    bare = capsys.readouterr().out
    assert calls == []
    code, data = _run_json(tmp_path, "walls", argv)
    assert code == 0 and capsys.readouterr().out == bare
    assert len(calls) == data["count"] == len(data["walls"]) > 0
    assert calls == list(enumerate_walls(ModuliParams(3, 2, 2)))


def test_walls_tests_only_a_weights_file_for_genericity(monkeypatch, tmp_path, capsys):
    """The sampler returns only weights it has found generic, so walls
    reports sampled weights generic without a second is_generic call; a
    --weights file is tested once, and one on a wall reports
    generic: false and still exits 0."""
    calls = []
    real = parmirror.cli.is_generic
    monkeypatch.setattr(parmirror.cli, "is_generic", lambda w, p: calls.append(w) or real(w, p))
    argv = ["walls", "--n", "3", "--g", "2", "--marked", "2", "--seed", "1"]
    code, data = _run_json(tmp_path, "sampled", argv)
    assert (code, data["generic"], calls) == (0, True, [])
    path = tmp_path / "w.json"
    path.write_text('{"points": [["0/1", "1/4"], ["0/1", "1/4"]]}', encoding="utf-8")
    argv = ["walls", "--n", "2", "--g", "2", "--marked", "2", "--weights", str(path)]
    code, data = _run_json(tmp_path, "on_wall", argv)
    assert (code, data["generic"], len(calls)) == (0, False, 1)
    assert capsys.readouterr().out.endswith(", weights generic=false\n")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader is gone, and which has no file descriptor."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("stdout,code", [(_ClosedPipe(), 141), (None, 0)], ids=["closed", "absent"])
def test_stdout_without_a_descriptor(monkeypatch, capsys, stdout, code):
    """In-process stdout may have no descriptor, and started with fd 1
    closed it is None: a closed one exits 141, an absent one 0 as print
    skips it, both with nothing on stderr."""
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["lemma", "--n", "3"]) == code
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_quietly(unbuffered):
    """A reader gone before tms prints is neither a usage error nor a failed
    identity: the child exits 141, as a shell reports SIGPIPE, with nothing
    on stderr, whether its stdout is buffered or not."""
    env = child_env(PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from parmirror.cli import main; sys.exit(main())",
             "tms", "--n", "3", "--g", "2", "--marked", "1"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_orbits_report(tmp_path):
    code, data = _run_json(
        tmp_path, "orbits",
        ["orbits", "--n", "3", "--g", "2", "--deg", "1", "--gamma", "1,2,0,1"],
    )
    assert code == 0
    jsonschema.validate(data, schemas.load("orbits"))
    assert data["orbit_size"] == 3
    assert data["invariant_count"] == 0
    assert data["kernel_components"] == 3
    assert data["action_ok"] is True


def test_orbits_zero_gamma_is_usage_error(capsys):
    assert main(["orbits", "--n", "3", "--g", "2", "--gamma", "0,0,0,0"]) == 2
    assert capsys.readouterr().err == "error: gamma must be nonzero\n"


def _boundary_argvs():
    """Invocations each subcommand must refuse as usage errors."""
    for name in ("tms", "variant", "stringy", "walls", "section", "orbits"):
        marked = [] if name == "orbits" else ["--marked", "1"]
        for g in ("-1", "0", "1"):
            yield [name, "--n", "3", "--g", g, *marked]
        for n in ("1", "4"):
            yield [name, "--n", n, "--g", "2", *marked]
        if marked:
            yield [name, "--n", "3", "--g", "2", "--marked", "0"]
    for n in ("-1", "0", "11"):
        yield ["lemma", "--n", n]
    for name in ("tms", "variant", "walls"):
        instance = [name, "--n", "3", "--g", "2", "--marked", "1"]
        for scale in ("0", "2", "1/1000000000"):
            yield instance + ["--scale", scale]
        yield instance + ["--weights", "missing.json"]
    yield ["sweep", "--config", "missing.ini"]


@pytest.mark.parametrize("argv", list(_boundary_argvs()), ids=" ".join)
def test_boundary_input_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_section_report(tmp_path):
    code, data = _run_json(
        tmp_path, "section", ["section", "--n", "5", "--g", "2", "--marked", "2"]
    )
    assert code == 0
    jsonschema.validate(data, schemas.load("section"))
    assert data["check"] is True
    assert data["reversed_control"] is False


def test_sweep_reruns_byte_identical(tmp_path):
    config = tmp_path / "grid.ini"
    config.write_text(
        "[grid]\nn = 2\ng = 2\nk = 1 2\nd = 0 1\n"
        "[sampling]\nseeds = 1 2\nscales = 1\n",
        encoding="utf-8",
    )
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"sweep_{run}.json"
        code = main(["sweep", "--config", str(config), "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    data = json.loads(outs[0])
    jsonschema.validate(data, schemas.load("sweep"))
    assert data["summary"]["all_equal"] is True


def test_sweep_csv(tmp_path):
    config = tmp_path / "grid.ini"
    config.write_text(
        "[grid]\nn = 2\ng = 2\nk = 1\nd = 0\n[sampling]\nseeds = 1\nscales = 1\n",
        encoding="utf-8",
    )
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,g,k,d,equal,component_count,wall_count,error"
    assert len(lines) == 2


@pytest.mark.parametrize("timings", [False, True])
def test_sweep_csv_failure_row(tmp_path, timings):
    """A parameter set that cannot be built fails the sweep (exit 1) and
    gets a row with empty outcome columns, its error last (before an empty
    total_ms under --timings)."""
    config = tmp_path / "grid.ini"
    config.write_text(
        "[grid]\nn = 2 4\ng = 2\nk = 1\nd = 0\n[sampling]\nseeds = 1\nscales = 1\n",
        encoding="utf-8",
    )
    csv_path = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(config), "--csv", str(csv_path)]
    assert main(argv + ["--timings"] * timings) == 1
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3 and lines[1].startswith("2,2,1,0,True,")
    assert lines[2] == "4,2,1,0,,,,ValueError: rank 4 is not prime" + "," * timings


def test_sweep_missing_config_is_usage_error(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "nope.ini")]) == 2


@pytest.mark.parametrize("text,named", [
    ("[grid]\nn = 2\ng = 2\nk = 1\nd = 0\n", "[sampling]"),
    ("[grid]\nn = 2\ng = 2\nk = 1\n[sampling]\nseeds = 1\nscales = 1\n", "'d'"),
    ("[grid]\nn = 2\ng = 2\nk = 1\nd =\n[sampling]\nseeds = 1\nscales = 1\n", "d is empty"),
    ("n = 2\n", "cannot parse"),
    ("[grid]\nn = 2\ng = 2\nk = 1\nd = 0\n[sampling]\nseeds = 1\nscales = 1/0\n",
     "zero denominator"),
], ids=["no-section", "no-key", "empty-axis", "no-header", "zero-denominator"])
def test_sweep_bad_config_is_usage_error(tmp_path, capsys, text, named):
    config = tmp_path / "grid.ini"
    config.write_text(text, encoding="utf-8")
    assert main(["sweep", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


def test_cli_import_does_not_load_logging():
    """No code path logs, so importing the CLI must not pay for the logging
    package (about 5 ms per process) beyond what a bare interpreter loads."""
    env = child_env()
    probe = "import sys; {}; print('logging' in sys.modules)"
    loaded = [
        subprocess.run(
            [sys.executable, "-c", probe.format(stmt)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        for stmt in ("pass", "import parmirror.cli")
    ]
    assert loaded[1] == loaded[0], loaded
