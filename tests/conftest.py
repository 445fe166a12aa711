import gc
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test that leaves the garbage collector disabled or frozen
    (the library pauses it only inside its loaders); restore it first so
    the next test starts clean."""
    yield
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    gc.enable()
    gc.unfreeze()
    assert enabled, "the garbage collector was left disabled"
    assert frozen == 0, f"{frozen} objects were left frozen"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def morph_dict():
    from aranlp.morphology import load_dictionary

    return load_dictionary(DATA / "morph_dict.tsv")


@pytest.fixture(scope="session")
def inventory():
    from aranlp.wsd import load_inventory

    return load_inventory(DATA / "inventory.tsv")


@pytest.fixture(scope="session")
def gazetteer():
    from aranlp.ner import load_gazetteer

    return load_gazetteer(DATA / "gazetteer.tsv")


@pytest.fixture(scope="session")
def pair_graph():
    from aranlp.synonymy import build_graph

    return build_graph(DATA / "synonym_pairs.tsv")
