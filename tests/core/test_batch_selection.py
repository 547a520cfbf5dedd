"""Batch selection is a Trainer policy (``TrainingConfig.batch_selection``).

``Trainer.run`` must reproduce the hand-rolled Table 6 loop this policy
replaced (``Trainer._build_engine()`` plus ``run_epoch`` over the
config's training rng, three epochs on ogb-products x0.2 in Table 6's
configuration) exactly: selection, sampling and the cost model are
untouched, and evaluation draws from its own rng.  Both sides run in
one process, so they share one BLAS thread count; the loss's last bits
depend on that count (a threaded weight-gradient product splits its
inner sum), the other columns do not, and those are pinned as well.
"""

import pytest

from repro import Trainer, TrainingConfig, load_dataset
from repro.batching import ClusterBatchSelector, RandomBatchSelector
from repro.errors import TrainingError

#: selection -> per epoch (epoch_seconds, involved_vertices,
#: involved_edges), recorded from the hand-rolled loop.
PINNED = {
    "random": [
        (0.0001681670447311088, 2800, 20228),
        (0.0001689369578144708, 2806, 20371),
        (0.00017084576744639377, 2822, 20625),
    ],
    "cluster": [
        (0.00015670194772961815, 2733, 17379),
        (0.000154474920542369, 2725, 17375),
        (0.00015518216157550741, 2712, 17348),
    ],
}


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("ogb-products", scale=0.2)


def table6_config(**overrides):
    return TrainingConfig(epochs=3, batch_size=128, fanout=(10, 10),
                          num_workers=1, partitioner="hash",
                          transfer="zero-copy", pipeline="bp+dt", seed=0,
                          **overrides)


def table6_columns(epoch_stats):
    return [(s.epoch_seconds, s.involved_vertices, s.involved_edges,
             s.loss) for s in epoch_stats]


@pytest.mark.parametrize("selection", sorted(PINNED))
def test_trainer_reproduces_the_table6_loop(dataset, selection):
    config = table6_config(batch_selection=selection)
    result = Trainer(dataset, config).run()
    engine, *_ = Trainer(dataset, config)._build_engine()
    rng = config.rng(salt=100)
    loop = [engine.run_epoch(128, rng, epoch=epoch)
            for epoch in range(config.epochs)]
    trained = table6_columns(result.epoch_stats)
    assert trained == table6_columns(loop)
    assert [row[:3] for row in trained] == PINNED[selection]


class TestBuildSelector:
    def test_names(self, dataset):
        config = TrainingConfig()
        assert config.batch_selection == "random"
        assert isinstance(config.build_selector(dataset.graph),
                          RandomBatchSelector)
        cluster = config.with_overrides(
            batch_selection="cluster").build_selector(dataset.graph)
        assert isinstance(cluster, ClusterBatchSelector)
        assert cluster.graph is dataset.graph

    def test_object_passes_through(self, dataset):
        selector = RandomBatchSelector()
        config = TrainingConfig(batch_selection=selector)
        assert config.build_selector(dataset.graph) is selector

    def test_unknown_name_rejected(self, dataset):
        with pytest.raises(TrainingError, match="batch_selection"):
            TrainingConfig(batch_selection="psychic").build_selector(
                dataset.graph)

    def test_full_graph_has_no_batch_selection(self, dataset):
        config = table6_config(sampler="full-graph",
                               batch_selection="cluster")
        with pytest.raises(TrainingError, match="batch_selection"):
            Trainer(dataset, config).run()

    def test_trainer_hands_the_selector_to_the_engine(self, dataset):
        selector = ClusterBatchSelector(dataset.graph)
        engine, *_ = Trainer(dataset, table6_config(
            batch_selection=selector))._build_engine()
        assert engine.selector is selector
