import gzip

import pytest

from grovertrain import tasks
from conftest import make_synthetic_idx_dir, samples


class TestBuiltinTasks:
    def test_toy(self, toy_bundle):
        assert toy_bundle.name == "toy"
        assert len(toy_bundle.full) == 2
        assert toy_bundle.train is toy_bundle.full
        assert toy_bundle.test is toy_bundle.full
        assert toy_bundle.full.class_count == 2
        assert toy_bundle.model.weight_width == 1

    def test_line_tasks(self, edge_bundle, sed_bundle):
        assert len(edge_bundle.full) == 512
        assert len(edge_bundle.train) == 400
        assert len(edge_bundle.test) == 112
        assert edge_bundle.full.class_count == 4
        assert edge_bundle.model.weight_width == 8
        assert sed_bundle.full.class_count == 2
        assert sed_bundle.model.weight_width == 4

    def test_split_seed_changes_membership(self):
        a = tasks.load_task("edge", split_seed=0)
        b = tasks.load_task("edge", split_seed=1)
        assert {x for x, _ in samples(a.train)} != \
            {x for x, _ in samples(b.train)}
        again = tasks.load_task("edge", split_seed=0)
        assert samples(a.train) == samples(again.train)

    def test_unknown_name(self):
        with pytest.raises(tasks.TaskError):
            tasks.load_task("mnist-full")


class TestImageTask:
    def test_needs_a_directory(self, monkeypatch):
        monkeypatch.delenv(tasks.MNIST_DIR_ENV, raising=False)
        with pytest.raises(tasks.TaskError):
            tasks.load_task("tiny-mnist")

    def test_loads_from_explicit_directory(self, tmp_path):
        d = make_synthetic_idx_dir(tmp_path, n_train=300, n_test=100)
        bundle = tasks.load_task("tiny-mnist", mnist_dir=str(d))
        assert bundle.full.class_count == 3
        assert bundle.train.d_y == 2
        assert bundle.full is bundle.train
        assert bundle.model.weight_width == 20
        assert len(bundle.train) > 0 and len(bundle.test) > 0

    def test_loads_from_environment_variable(self, tmp_path, monkeypatch):
        d = make_synthetic_idx_dir(tmp_path, n_train=300, n_test=100)
        monkeypatch.setenv(tasks.MNIST_DIR_ENV, str(d))
        via_env = tasks.load_task("tiny-mnist")
        via_arg = tasks.load_task("tiny-mnist", mnist_dir=str(d))
        assert samples(via_env.train) == samples(via_arg.train)

    def test_reads_gzipped_files(self, tmp_path):
        d = make_synthetic_idx_dir(tmp_path, n_train=300, n_test=100)
        plain = d / "train-images-idx3-ubyte"
        (d / "train-images-idx3-ubyte.gz").write_bytes(
            gzip.compress(plain.read_bytes()))
        plain.unlink()
        bundle = tasks.load_task("tiny-mnist", mnist_dir=str(d))
        assert len(bundle.train) > 0

    def test_missing_file_reported(self, tmp_path):
        d = make_synthetic_idx_dir(tmp_path, n_train=300, n_test=100)
        (d / "t10k-labels-idx1-ubyte").unlink()
        with pytest.raises(tasks.TaskError):
            tasks.load_task("tiny-mnist", mnist_dir=str(d))
