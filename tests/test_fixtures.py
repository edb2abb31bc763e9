import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"


def test_make_fixtures_regenerates_the_corpus(tmp_path, capsys, fixtures_dir):
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.OUT = tmp_path
    script.main()
    made = sorted(p.name for p in tmp_path.iterdir())
    assert made == sorted(p.name for p in fixtures_dir.glob("*.json"))
    for name in made:
        assert (tmp_path / name).read_bytes() == (fixtures_dir / name).read_bytes(), name
