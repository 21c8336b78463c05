"""The CLI's misuse contract, over generated argument vectors, config files
and sweep grids across all six subcommands, at small sizes.

Each invocation runs twice.  First with every draw (``rng._philox_keys``)
and every count law (``exact._count_laws``) patched to raise: an invocation
that returns then did no work, so any refusal it made came before work.
One that reached work runs again for real and must not be refused.  Both
runs keep the contract: exit code 0, 2, 3 or 4; no traceback; stdout empty
unless the code is 0 or 4; stdout that parses as the format asked for; and
rows that echo only options their command takes.
"""

import contextlib
import csv
import io
import json
import os
import re
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from treecast import exact, rng
from treecast.cli import OPTIONS, main
from treecast.report import CSV_COLUMNS

COMMANDS = ("eps-k", "delta", "critical", "fk-stats", "verify", "sweep")
KEYS = {opt.key for opt in OPTIONS}
TAKES = {c: {opt.key for opt in OPTIONS if c in opt.commands} for c in COMMANDS}
# A sweep also echoes the grid's r and the "grid" scheme.
ECHOES = {c: {"command", *TAKES[c]} | ({"r", "scheme"} if c == "sweep" else set())
          for c in COMMANDS}
# The suites that run in milliseconds.
SUITES = ("lemma22", "lemma33", "thm32", "lemma51")
SCHEMES = ("Identity", "WithinDescentMajority{k=2}", "BlockMajorityEveryStep{M=4}", "Bogus")

# Flag values: (good, bad).  "OUT", "MISSING" and "DIR" stand for a
# writable file, a file in a missing directory, and a directory.
FLAG_VALUES = {
    "r": (("2", "3"), ("1", "x")),
    "k": (("1", "1..2", "2,1"), ("0", "3..1")),
    "eps": (("0.1", "0.3"), ("0.5", "-0.1", "nan")),
    "p": (("0.6", "0.9"), ("0", "1.5")),
    "depth": (("0", "2", "4"), ("-1",)),
    "scheme": (SCHEMES[:3], SCHEMES[3:]),
    "M": (("1", "4"), ("0",)),
    "replicates": (("100", "200"), ("0", "50")),
    "samples": (("2", "5"), ("1",)),
    "seed": (("0", "7"), ("-1",)),
    "budget": (("3", "100"), ("1",)),
    "format": (("csv", "json"), ("xml",)),
    "out": (("OUT",), ("MISSING", "DIR", "")),
}
# Config values: (good, bad), the bad ones out of their domain or of the
# wrong JSON type; "replicate" and "config" name no option.
CONFIG_VALUES = {
    "r": ((2, 3), (1, "2")),
    "k": (("1..2", 2, [2, 1]), ([], "1..x", 1.5)),
    "eps": ((0.1, 0), (0.5, "0.1")),
    "p": ((0.7, 1), (0.0, True)),
    "depth": ((2, 4), (-1, "4")),
    "scheme": (SCHEMES[:3], SCHEMES[3:] + (3,)),
    "M": ((1, 4), (0, 4.0)),
    "replicates": ((100, 200), (0, "100")),
    "samples": ((2, 5), (1,)),
    "seed": ((0, 7), (-1, None)),
    "budget": ((3, 100), (1, "100")),
    "format": (("csv", "json"), ("xml", 1)),
    "out": (("OUT",), ("MISSING", "DIR", 0, "")),
    "reproducible": ((True, False), (1,)),
    "exact": ((True, False), ("yes",)),
    "replicate": ((), (100,)),
    "config": ((), ("other.json",)),
}
GRID_VALUES = {
    "r": ((2, 3), (1, "2")),
    "schemes": ((["Identity"], ["Identity", "WithinDescentMajority{k=2}"]),
                ([], ["Bogus"], "Identity")),
    "eps": (([0.1], [0.0, 0.2]), ([0.7], [], 0.1)),
    "depths": (([2], [4, 2]), ([3], [-1], [])),
    "replicates": ((100, 200), (50, "100")),
    "seed": ((0, 9), (-1,)),
    "depth": ((), ([2],)),
}
# What each command needs to run; "channel" is --eps or --p.
REQUIRED = {"eps-k": ("r", "k", "channel"), "delta": ("r", "depth", "channel"),
            "critical": ("r", "k"), "fk-stats": ("r", "k", "channel"), "verify": (),
            "sweep": ()}


class Work(BaseException):
    """Raised by the patched draw and count-law routines."""


def never(*args, **kwargs):
    raise Work


def value(draw, values):
    """A good value seven times in eight, else a bad one."""
    good, bad = values
    return draw(st.sampled_from(good if good and (not bad or draw(st.integers(0, 7))) else bad))


def json_object(draw, values, keys):
    keys = set(keys) | set(draw(st.lists(st.sampled_from(sorted(values)), max_size=3)))
    return {key: value(draw, values[key]) for key in sorted(keys)}


@st.composite
def invocations(draw):
    """``(argv, config, grid)``: a sweep's ``grid`` and ``config`` are JSON
    objects, and "GRID" and "CONFIG" in ``argv`` stand for their files.
    The options a command needs are given almost always, each as a flag or
    in the config; others now and then, foreign ones rarely."""
    command = draw(st.sampled_from(COMMANDS))
    argv, grid, config = [command], None, {}
    if command == "verify":
        argv.append(draw(st.sampled_from(SUITES)))
    if command == "sweep":
        argv.append("GRID")
        grid = json_object(draw, GRID_VALUES, ("r", "schemes", "eps", "depths"))
    own = sorted(TAKES[command])
    keys = [key for key in REQUIRED[command] if draw(st.integers(0, 15))]
    keys = [draw(st.sampled_from(("eps", "p"))) if key == "channel" else key for key in keys]
    keys += draw(st.lists(st.sampled_from(own), max_size=3))
    if not draw(st.integers(0, 9)):
        keys.append(draw(st.sampled_from(sorted(KEYS))))
    for key in dict.fromkeys(keys):
        if draw(st.booleans()):
            config[key] = value(draw, CONFIG_VALUES[key])
        elif key in ("exact", "reproducible"):
            argv.append(f"--{key}")
        else:
            argv += [f"--{key}", value(draw, FLAG_VALUES[key])]
    if draw(st.integers(0, 3)) == 0:
        config.update(json_object(draw, CONFIG_VALUES, ()))
    if config or draw(st.integers(0, 9)) == 0:
        argv += ["--config", "CONFIG"]
    return argv, config, grid


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def echoed(cell):
    """The keys of a CSV params cell's echo, which comes first: its leading
    keys that name options (the rest, such as a requirement, is free text)."""
    keys = set()
    for key in re.findall(r"(?:^| )(\w+)=", cell):
        if key not in KEYS | {"command"}:
            break
        keys.add(key)
    return keys


def check_output(command, fmt, out_path, code, out, err):
    assert code in (0, 2, 3, 4), (code, err)
    assert "Traceback" not in err
    if code not in (0, 4):
        assert out == ""
        assert err.splitlines()[-1].startswith(("error: ", "budget error: ", "treecast"))
        return
    if os.path.isfile(out_path):  # the rows went to --out
        assert out == ""
        with open(out_path, encoding="utf-8") as fh:
            out = fh.read()
    if fmt == "json":
        params = [set(row["params"]) for row in json.loads(out)]
    else:
        lines = [line for line in out.splitlines() if not line.startswith("# ")]
        reader = csv.DictReader(io.StringIO("\n".join(lines)))
        rows = list(reader)
        assert reader.fieldnames == list(CSV_COLUMNS)
        params = [echoed(row["params"]) for row in rows]
    assert params
    for keys in params:
        assert keys & KEYS <= ECHOES[command], keys


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_cli_keeps_its_misuse_contract(invocation):
    argv, config, grid = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"OUT": os.path.join(tmp, "rows.out"), "DIR": tmp,
                 "MISSING": os.path.join(tmp, "missing", "rows.out"),
                 "CONFIG": os.path.join(tmp, "config.json"),
                 "GRID": os.path.join(tmp, "grid.json")}
        for name, content in (("CONFIG", config), ("GRID", grid)):
            if name in argv:
                if "out" in content:
                    content = {**content, "out": paths.get(content["out"], content["out"])}
                with open(paths[name], "w", encoding="utf-8") as fh:
                    json.dump(content, fh)
        argv = [paths.get(arg, arg) for arg in argv]
        flag_format = argv[argv.index("--format") + 1] if "--format" in argv else None
        fmt = flag_format or config.get("format", "csv")

        real = rng._philox_keys, exact._count_laws
        rng._philox_keys = exact._count_laws = never
        try:
            result = run(argv)
            worked = False
        except Work:
            worked = True
        finally:
            rng._philox_keys, exact._count_laws = real
        if worked:
            result = run(argv)
            assert result[0] in (0, 4), f"refused after work began: {result[2]}"
        check_output(argv[0], fmt, paths["OUT"], *result)
