"""The CLI's parser texts, pinned byte for byte, and what an invocation imports.

A command's parser is built alone, and the top-level parser holds only the
command names, so an unrecognized flag after a command is reported by that
command's parser, with its usage and the prefix ``greencell <cmd>: error:``.
"""

import os
import subprocess
import sys

import pytest

from greencell import __version__, cli

from conftest import CONFIG_PATH
from oracles import read_csv

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

TOP_HELP = (
    'usage: greencell [-h] [--version] {analyze,sweep,validate,optimize} ...\n'
    '\n'
    'Battery-aware cellular network analysis and bias optimization.\n'
    '\n'
    'positional arguments:\n'
    '  {analyze,sweep,validate,optimize}\n'
    '    analyze             metrics for one bias vector\n'
    '    sweep               grid over bias exponents and recharge rates\n'
    '    validate            Monte-Carlo check of the coverage analysis\n'
    '    optimize            genetic bias search plus scheme comparison\n'
    '\n'
    'options:\n'
    '  -h, --help            show this help message and exit\n'
    "  --version             show program's version number and exit\n"
)

ANALYZE_HELP = (
    'usage: greencell analyze [-h] --out OUT [--seed SEED] [--beta BETA]\n'
    '                         [--bias-file BIAS_FILE]\n'
    '                         config\n'
    '\n'
    'positional arguments:\n'
    '  config                JSON config file\n'
    '\n'
    'options:\n'
    '  -h, --help            show this help message and exit\n'
    '  --out OUT             output CSV path\n'
    '  --seed SEED\n'
    '  --beta BETA           power-law exponent\n'
    '  --bias-file BIAS_FILE\n'
    '                        JSON array of per-level biases\n'
)

SWEEP_HELP = (
    'usage: greencell sweep [-h] --out OUT [--seed SEED] [--betas BETAS]\n'
    '                       [--nus NUS]\n'
    '                       config\n'
    '\n'
    'positional arguments:\n'
    '  config         JSON config file\n'
    '\n'
    'options:\n'
    '  -h, --help     show this help message and exit\n'
    '  --out OUT      output CSV path\n'
    '  --seed SEED\n'
    '  --betas BETAS\n'
    '  --nus NUS      comma list; defaults to the config value\n'
)

VALIDATE_HELP = (
    'usage: greencell validate [-h] --out OUT [--seed SEED] [--betas BETAS]\n'
    '                          [--drops DROPS]\n'
    '                          config\n'
    '\n'
    'positional arguments:\n'
    '  config         JSON config file\n'
    '\n'
    'options:\n'
    '  -h, --help     show this help message and exit\n'
    '  --out OUT      output CSV path\n'
    '  --seed SEED\n'
    '  --betas BETAS\n'
    '  --drops DROPS\n'
)

OPTIMIZE_HELP = (
    'usage: greencell optimize [-h] --out OUT [--seed SEED] [--pop POP]\n'
    '                          [--iters ITERS]\n'
    '                          config\n'
    '\n'
    'positional arguments:\n'
    '  config         JSON config file\n'
    '\n'
    'options:\n'
    '  -h, --help     show this help message and exit\n'
    '  --out OUT      output file prefix (_best/_history/_comparison CSVs)\n'
    '  --seed SEED\n'
    '  --pop POP\n'
    '  --iters ITERS\n'
)


def usage(help_text):
    """The usage lines a help text starts with."""
    return help_text.split("\n\n")[0] + "\n"


TOP_USAGE = usage(TOP_HELP)


def run_cli(argv, capsys, monkeypatch):
    """(exit code, stdout, stderr) of an invocation that argparse ends, at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its texts to the terminal width
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


HELP_TEXTS = {
    "-h": TOP_HELP,
    "--help": TOP_HELP,
    "-h analyze": TOP_HELP,
    "--version": __version__ + "\n",
    "analyze -h": ANALYZE_HELP,
    "sweep -h": SWEEP_HELP,
    "validate -h": VALIDATE_HELP,
    "optimize --help": OPTIMIZE_HELP,
}

CHOICES = "(choose from 'analyze', 'sweep', 'validate', 'optimize')"
USAGE_ERRORS = {
    "analyze --out x.csv":
        usage(ANALYZE_HELP) + "greencell analyze: error: the following arguments are required: config\n",
    "analyze cfg.json":
        usage(ANALYZE_HELP) + "greencell analyze: error: the following arguments are required: --out\n",
    "analyze":
        usage(ANALYZE_HELP) + "greencell analyze: error: the following arguments are required: config, --out\n",
    "optimize cfg.json":
        usage(OPTIMIZE_HELP) + "greencell optimize: error: the following arguments are required: --out\n",
    "": TOP_USAGE + "greencell: error: the following arguments are required: command\n",
    "bogus": TOP_USAGE + f"greencell: error: argument command: invalid choice: 'bogus' {CHOICES}\n",
    "anal": TOP_USAGE + f"greencell: error: argument command: invalid choice: 'anal' {CHOICES}\n",
    # The changed text: the command's parser reports the flag, with its own usage.
    "analyze cfg.json --out x.csv --eps 1":
        usage(ANALYZE_HELP) + "greencell analyze: error: unrecognized arguments: --eps 1\n",
}


@pytest.mark.parametrize("line", HELP_TEXTS)
def test_help_and_version_texts(line, capsys, monkeypatch):
    assert run_cli(line.split(), capsys, monkeypatch) == (0, HELP_TEXTS[line], "")


@pytest.mark.parametrize("line", USAGE_ERRORS)
def test_usage_error_texts(line, capsys, monkeypatch):
    assert run_cli(line.split(), capsys, monkeypatch) == (cli.EXIT_CONFIG, "", USAGE_ERRORS[line])


def fresh(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports greencell from ``src``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True).stdout


def test_import_loads_neither_the_sampler_nor_the_pool():
    # Only validate samples, and only a pool of two or more workers needs concurrent.futures.
    out = fresh("import sys, greencell.cli; "
                "print(sorted({'greencell.montecarlo', 'concurrent.futures'} & set(sys.modules)))")
    assert out == "[]\n"


def test_validate_calls_estimate_success_through_the_cli_global(tmp_path, monkeypatch, capsys):
    # perfbench's tracer wraps cli.estimate_success, so each validate point must call it there.
    drops, real = [], cli.estimate_success

    def spy(*args, **kwargs):
        drops.append(args[4])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "estimate_success", spy)
    monkeypatch.setenv("GREENCELL_WORKERS", "1")
    assert cli.main(["validate", CONFIG_PATH, "--out", str(tmp_path / "val.csv"),
                     "--betas", "0,1", "--drops", "20"]) == cli.EXIT_OK
    assert drops == [20, 20]


def test_pool_workers_import_the_sampler_and_match_a_serial_run(tmp_path):
    # A fresh parent runs validate on two workers first: the sampler is imported in
    # the workers only.  Its rows then equal a serial run's, byte for byte.
    script = "\n".join([
        "import os, sys",
        "from greencell import cli",
        "for workers, name in (('2', 'parallel'), ('1', 'serial')):",
        "    os.environ['GREENCELL_WORKERS'] = workers",
        f"    code = cli.main(['validate', {CONFIG_PATH!r}, '--out', os.path.join({str(tmp_path)!r}, name + '.csv'),",
        "                     '--betas', '0,1,2', '--drops', '300', '--seed', '4'])",
        "    print(name, code, 'greencell.montecarlo' in sys.modules)",
    ])
    printed = fresh(script).splitlines()
    assert "parallel 0 False" in printed and "serial 0 True" in printed
    parallel, serial = ((tmp_path / f"{name}.csv").read_text().splitlines() for name in ("parallel", "serial"))
    assert len(parallel) == len(serial) == 8  # four header lines, the field names, three rows
    for a, b in zip(parallel, serial):
        assert a == b or (a.startswith("# command: ") and b.startswith("# command: "))
    _, _, rows = read_csv(tmp_path / "serial.csv")
    assert [row["beta"] for row in rows] == ["0.0", "1.0", "2.0"]
