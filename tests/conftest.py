import pytest
import ray
from ray.data import DataContext


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def tiny_fixture():
    from mistralocr_pdf2md_translator_ray.sources import generate_transcripts

    return generate_transcripts()


@pytest.fixture(scope="session")
def oracle_turns(tiny_fixture):
    from mistralocr_pdf2md_translator_ray.pipelines.oracle import oracle_extract_turns

    t, p = tiny_fixture
    return oracle_extract_turns(t, p)


@pytest.fixture(scope="session")
def pipeline_turns(tiny_fixture, ray_session):
    """Run the flagship Ray pipeline ONCE for the whole session; tests
    share the result (as a pandas frame sorted by the composite key)."""
    import ray.data as rd

    from mistralocr_pdf2md_translator_ray.pipelines.extract_pipeline import extract_turns

    t, p = tiny_fixture
    out = extract_turns(rd.from_arrow(t), rd.from_arrow(p))
    return (
        out.to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )


# The two curate jobs are the slowest queries() entries (a full staged
# job each); the schema pin and the rows-only check share one run.
_SHARED_QUERIES = ("curate_corpus", "curate_increment")


@pytest.fixture(scope="session")
def run_query(ray_session):
    """``run_query(name, sf_dir)`` == ``queries()[name](sf_dir)``, with
    the curate jobs' results cached for the session."""
    import __ray_entry__ as entry_mod

    cache = {}

    def run(name, sf_dir):
        if name not in _SHARED_QUERIES:
            return entry_mod.queries()[name](sf_dir)
        if (name, sf_dir) not in cache:
            cache[name, sf_dir] = entry_mod.queries()[name](sf_dir)
        return cache[name, sf_dir]

    return run
