"""The public surface stays whole: every exported name resolves, and
every name the benchmark's traced run wraps still exists where its
callers look it up, so a deletion cannot silently break ``--trace 1``."""

import importlib.util
import re
import shlex
from collections import Counter
from pathlib import Path

import numpy as np

import copgof
from copgof import cli, copulas, inference
from copgof.copulas import Family

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_all_names_resolve():
    missing = [name for name in copgof.__all__ if not hasattr(copgof, name)]
    assert not missing


def test_traced_names_exist():
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in _spans().TRACED
               if not callable(getattr(module, attr, None))]
    assert not missing


def test_traced_rows_count_the_observations():
    spans = _spans()
    rng = np.random.default_rng(3)
    u1, u2 = copulas.sample_pairs(copulas.CopulaModel(Family.CLAYTON, 2.0), rng, 37)
    obs = copulas.Observations(u1, u2, rng.integers(0, 2, 37), rng.integers(0, 2, 37))
    counters = Counter()
    spans._count_rows(counters, (Family.CLAYTON, 2.0, obs), {}, None)
    assert counters["copulas.loglik_vec.rows"] == 37
    # through a fit: every traced loglik_vec call adds the n rows of its sample
    tracer = spans.Tracer()
    with tracer.installed():
        inference.fit_pmle(Family.CLAYTON, obs)
    calls = sum(name == "copulas.loglik_vec" for name, *_ in tracer.spans)
    assert calls > 1 and tracer.counters["copulas.loglik_vec.rows"] == 37 * calls


def test_readme_library_example_runs(capsys):
    # the README's library example runs as written, so a signature change
    # that it does not follow fails here
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library use\n.*?```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "Family.CLAYTON"


def test_readme_cli_examples_parse():
    # every copgof command in the README's sh blocks parses as written, so
    # a flag the CLI drops or renames fails here; nothing is run
    readme = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = re.sub(r">\s*\S+", "", line)
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["copgof"]:
                commands.append(argv[1:])
    assert {argv[0] for argv in commands} == {"test", "select", "fit", "km", "simulate"}
    failures = []
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv)
        except cli.UsageError as exc:
            failures.append(f"copgof {shlex.join(argv)}: {exc}")
    assert not failures
