import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
spec = importlib.util.spec_from_file_location("parity", TOOL)
parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parity)


def make_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode())
    return root


def test_identical_trees_have_no_differences(tmp_path):
    files = {"a.csv": "x,y\n1,2\n", "runs/seed_1/manifest.json": "{}\n"}
    a = make_tree(tmp_path / "a", files)
    b = make_tree(tmp_path / "b", files)
    assert parity.compare_dirs(a, b) == ([], 2)


def test_first_differing_line_is_reported(tmp_path):
    a = make_tree(tmp_path / "a", {"m.csv": "h\n1.0\n2.0\n3.0\n", "same.txt": "s\n"})
    b = make_tree(tmp_path / "b", {"m.csv": "h\n1.0\n2.5\n3.5\n", "same.txt": "s\n"})
    diffs, same = parity.compare_dirs(a, b)
    assert same == 1
    assert diffs == ["m.csv: line 3: '2.0' != '2.5'"]


def test_unmatched_and_truncated_files_differ(tmp_path):
    a = make_tree(tmp_path / "a", {"x.csv": "h\n1\n", "only_a.csv": ""})
    b = make_tree(tmp_path / "b", {"x.csv": "h\n1\n2\n", "sub/only_b.csv": ""})
    diffs, same = parity.compare_dirs(a, b)
    assert same == 0
    assert diffs == [
        f"only_a.csv: only in {a}",
        f"sub/only_b.csv: only in {b}",
        "x.csv: line 3: '' != '2'",
    ]


def test_a_trailing_newline_is_a_difference():
    assert parity.first_difference(b"h\n1", b"h\n1\n") == "line 3: one side ends first"


# -- the command matrix --------------------------------------------------------------

# The subcommands that write into their config's output_dir (or --output-dir).
WRITES_OUTPUT_DIR = {"run", "train-rl", "train-fnn", "tune", "evaluate"}
READ_FLAGS = ("--transitions", "--rl-checkpoint", "--fnn-model")


def flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def test_matrix_labels_are_unique():
    labels = [label for label, _ in parity.matrix()]
    assert len(labels) == len(set(labels))


def test_every_config_is_an_input_that_loads(tmp_path):
    from microreserve.cli import load_config

    files = parity.inputs()
    named = {flag(argv, "--config") for _, argv in parity.matrix()} - {None}
    assert named <= set(files)
    parity.write_inputs(tmp_path)
    for rel in files:
        load_config(str(tmp_path / rel), {})


def test_every_path_read_is_in_an_earlier_commands_output():
    files = parity.inputs()
    written: list[tuple[Path, list[str]]] = []  # each output dir and its seed directories
    for label, argv in parity.matrix():
        for name in READ_FLAGS:
            path = flag(argv, name)
            if path is None:
                continue
            path = Path(path)
            assert any(
                path.is_relative_to(out) and path.relative_to(out).parts[0] in seed_dirs
                for out, seed_dirs in written
            ), (label, str(path))
        if argv[0] in WRITES_OUTPUT_DIR:
            cfg = files[flag(argv, "--config")]
            seeds = flag(argv, "--seeds")
            seeds = seeds.split(",") if seeds else [str(s) for s in cfg["seeds"]]
            out = Path(flag(argv, "--output-dir") or cfg["output_dir"])
            written.append((out, [f"seed_{s}" for s in seeds]))
