import gzip

import pytest

from grovertrain import datasets as ds
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
        for _ in range(2):  # a refusal is never remembered as a task
            with pytest.raises(tasks.TaskError):
                tasks.load_task("mnist-full")


class TestMemoizedTasks:
    def test_repeated_load_returns_the_same_bundle(self):
        for name in ("toy", "edge", "simplified-ed"):
            assert tasks.load_task(name) is tasks.load_task(name)
        a = tasks.load_task("edge")
        assert tasks.load_task("edge", split_seed=0) is a

    def test_another_split_seed_is_another_bundle(self):
        a = tasks.load_task("edge")
        b = tasks.load_task("edge", split_seed=1)
        assert b is not a
        assert tasks.load_task("edge", split_seed=1) is b

    @pytest.mark.parametrize("name", ["toy", "edge", "simplified-ed"])
    def test_shared_arrays_are_read_only(self, name):
        b = tasks.load_task(name)
        for d in (b.full, b.train, b.test):
            for arr in (d.x, d.y):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0] = 1 - arr[0, 0]
        assert samples(tasks.load_task(name).full) == samples(b.full)


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

    def test_unreadable_file_reported(self, tmp_path):
        d = make_synthetic_idx_dir(tmp_path, n_train=300, n_test=100)
        (d / "train-images-idx3-ubyte").unlink()
        (d / "train-images-idx3-ubyte").mkdir()  # exists, cannot be read
        with pytest.raises(tasks.TaskError,
                           match="cannot read IDX file .*train-images"):
            tasks.load_task("tiny-mnist", mnist_dir=str(d))

    def test_files_are_read_on_every_call(self, tmp_path):
        # the same directory, rewritten with other digits, loads the new
        # samples: tiny-mnist is never memoized
        d = make_synthetic_idx_dir(tmp_path, n_train=300, n_test=100)
        first = tasks.load_task("tiny-mnist", mnist_dir=str(d))
        make_synthetic_idx_dir(tmp_path, n_train=300, n_test=100, seed=1)
        again = tasks.load_task("tiny-mnist", mnist_dir=str(d))
        want = ds.make_tiny_mnist(*(ds.parse_idx((d / stem).read_bytes())
                                    for stem in ("train-images-idx3-ubyte",
                                                 "train-labels-idx1-ubyte")))
        assert samples(again.train) == samples(want)
        assert samples(again.train) != samples(first.train)
        assert again.train is not first.train

    def test_missing_file_reported(self, tmp_path):
        d = make_synthetic_idx_dir(tmp_path, n_train=300, n_test=100)
        (d / "t10k-labels-idx1-ubyte").unlink()
        with pytest.raises(tasks.TaskError):
            tasks.load_task("tiny-mnist", mnist_dir=str(d))
