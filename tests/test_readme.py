"""The README's library overview runs as written and gives the values its comments state."""

import ast
import os

from pstirling.powerseries import QC

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def overview_values() -> dict:
    """Run the overview's code block; the value of each expression statement, keyed by its source."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Library overview", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.unparse(node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values


def test_library_overview_states_its_values():
    values = overview_values()
    assert values["table.entry(4, 2)"] == QC(3)
    assert values["ps.sum_moment(m, 3, 4)"] == 21
    assert values["ps.sum_moments(m, 3)[4]"] == QC(21)
    assert values["ps.sum_moment_recursion(m, 3, 4)"] == 21
    # the block also builds an Edgeworth model and draws from a seeded sampler
    assert 0.0 < values["ps.edgeworth_cdf(model, 16, 1.0)"] < 1.0
    assert len(values["list(ps.sample_sums(ps.poisson(1), 4, 3, rng))"]) == 3
