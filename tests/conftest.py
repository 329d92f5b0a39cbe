import os
from pathlib import Path

import pytest

# BLAS on one thread, set before numpy loads: a second OpenBLAS thread waits
# for a busy core, so on a shared machine the suite's time swung with the load
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import refparse as rp  # noqa: E402
from refparse.crf import TrainConfig, train
from refparse.features import FeatureConfig

DATA_DIR = Path(__file__).parent / "data"

FIGURE1_RECORD = rp.BibRecord(
    authors=(("Christiane", "Lemke"), ("Marcin", "Budka"), ("Bogdan", "Gabrys")),
    title="Metalearning: a survey of trends and technologies",
    year=2015,
    container="Artificial Intelligence Review",
    container_kind="journal",
    volume="44",
    issue="1",
    pages=("117", "130"),
)

FIGURE1_TEXT = (
    'C. Lemke, M. Budka and B. Gabrys, "Metalearning: a survey of trends and '
    'technologies," Artificial Intelligence Review, vol. 44, no. 1, '
    "pp. 117-130, 2015."
)


@pytest.fixture(scope="session")
def fixture_records():
    return rp.read_records(DATA_DIR / "records_100.jsonl")


@pytest.fixture(scope="session")
def small_model_and_eval():
    """A quick family-B model plus its held-out corpus, shared across tests.

    Family B is used so the model can parse the IEEE-shaped fixture string.
    """
    records = rp.random_records(200, seed=9)
    corpus = rp.generate_corpus(
        records, rp.style_family("B"), n=500, seed=10, name="small"
    )
    train_c, eval_c = rp.split(corpus, 0.8, seed=4)
    model = train(
        train_c,
        FeatureConfig(),
        TrainConfig(l2=0.5, max_epochs=120, tol=1e-4),
    )
    return model, eval_c
