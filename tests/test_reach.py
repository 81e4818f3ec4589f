import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reach.py"
spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)

TOY = '''"""A toy module."""

LIMIT = 3


def clip(x, step=1):
    """Docstring: no code."""
    global LIMIT
    if x > LIMIT:
        return LIMIT
    total = (x +
             1)
    try:
        total += step
    except TypeError:
        raise ValueError("not a number")
    return total


class Box:
    def __init__(self, value):
        self.value = value

    @property
    def doubled(self):
        return 2 * self.value

    def nested(self):
        def inner():
            return 1

        return inner
'''


def load_toy(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    toy_spec = importlib.util.spec_from_file_location("toy", path)
    toy = importlib.util.module_from_spec(toy_spec)
    toy_spec.loader.exec_module(toy)
    return str(path), toy


def line(text: str) -> int:
    return TOY.splitlines().index(text) + 1


def test_statements_are_those_inside_functions(tmp_path):
    path, _ = load_toy(tmp_path)
    got = {(s.function, s.first, s.last) for s in reach.function_statements(path)}
    assert got == {
        ("clip", line("    if x > LIMIT:"), line("    if x > LIMIT:")),
        ("clip", line("        return LIMIT"), line("        return LIMIT")),
        ("clip", line("    total = (x +"), line("             1)")),
        ("clip", line("    try:"), line("    try:")),
        ("clip", line("        total += step"), line("        total += step")),
        ("clip", line('        raise ValueError("not a number")'), line('        raise ValueError("not a number")')),
        ("clip", line("    return total"), line("    return total")),
        ("Box.__init__", line("        self.value = value"), line("        self.value = value")),
        ("Box.doubled", line("        return 2 * self.value"), line("        return 2 * self.value")),
        ("Box.nested", line("        def inner():"), line("        def inner():")),
        ("Box.nested.inner", line("            return 1"), line("            return 1")),
        ("Box.nested", line("        return inner"), line("        return inner")),
    }


def test_unreached_lists_what_the_run_skips(tmp_path):
    path, toy = load_toy(tmp_path)

    def run():
        toy.clip(1)
        toy.Box(2).nested()

    missed = [(s.function, s.source) for s in reach.unreached([path], run)]
    assert missed == [
        ("clip", "return LIMIT"),
        ("clip", 'raise ValueError("not a number")'),
        ("Box.doubled", "return 2 * self.value"),
        ("Box.nested.inner", "return 1"),
    ]


def test_a_run_that_reaches_everything_leaves_nothing(tmp_path):
    path, toy = load_toy(tmp_path)

    def run():
        toy.clip(5)
        toy.clip(1)
        try:
            toy.clip(1, "a")
        except ValueError:
            pass
        box = toy.Box(2)
        assert box.doubled == 4 and box.nested()() == 1

    assert reach.unreached([path], run) == []
