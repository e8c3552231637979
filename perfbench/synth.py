"""Seeded synthetic two-class data in the CIFAR-10 binary batch format.

Class 0 ("plane") images carry mostly horizontal stripes and class 8
("ship") images mostly vertical ones; the other orientation leaks in
with a random amplitude and every pixel gets Gaussian noise, so the
classes overlap and a trained network stays below perfect accuracy.
Records are 1 label byte + 3072 channel-planar (R, G, B) pixel bytes.
"""

import os

import numpy as np

CLASSES = (0, 8)
TRAIN_FILES = 2  # data_batch_1.bin, data_batch_2.bin
TRAIN_SEED = 2019  # every run trains on the same batches, so on the same network


def _images(rng, labels, amp=0.15, noise=0.12, leak=0.8):
    n = labels.shape[0]
    rows = np.arange(32)

    def waves():
        freq = rng.uniform(2.0, 3.0, size=(n, 1))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(n, 1))
        return np.sin(2.0 * np.pi * freq * rows / 32.0 + phase)  # [n, 32]

    horiz = waves()[:, :, None]  # varies down the rows
    vert = waves()[:, None, :]  # varies across the columns
    main = rng.uniform(0.5, 1.0, size=(n, 1, 1))
    side = rng.uniform(0.0, leak, size=(n, 1, 1))
    is_first = (labels == CLASSES[0])[:, None, None]
    pattern = np.where(is_first, main * horiz + side * vert, main * vert + side * horiz)
    img = 0.5 + amp * pattern[..., None] + noise * rng.standard_normal((n, 32, 32, 3))
    return np.round(np.clip(img, 0.08, 0.92) * 255.0).astype(np.uint8)


def _write_batch(path, labels, images):
    planar = images.transpose(0, 3, 1, 2).reshape(len(labels), -1)  # R, G, B planes
    records = np.concatenate([labels.astype(np.uint8)[:, None], planar], axis=1)
    with open(path, "wb") as f:
        f.write(records.tobytes())


def write_dataset(data_dir, seed, n_train=2000, n_test=400):
    """Write the batches; return (train_labels, test_labels) as 0/1 ids.

    The training batches come from the fixed TRAIN_SEED stream and the
    test batch from the seed's own stream. Each split is balanced and
    shuffled. Label 1 stands for CLASSES[1], matching the program's
    two-class relabelling.
    """
    os.makedirs(data_dir, exist_ok=True)

    def labels(rng, n):
        return rng.permutation(np.repeat(np.array(CLASSES), n // 2))

    rng = np.random.default_rng([TRAIN_SEED, 0])
    train = labels(rng, n_train)
    per_file = n_train // TRAIN_FILES
    for b in range(TRAIN_FILES):
        part = train[b * per_file:(b + 1) * per_file]
        _write_batch(os.path.join(data_dir, f"data_batch_{b + 1}.bin"), part, _images(rng, part))
    rng = np.random.default_rng([seed, 1])
    test = labels(rng, n_test)
    _write_batch(os.path.join(data_dir, "test_batch.bin"), test, _images(rng, test))
    return (train == CLASSES[1]).astype(np.int64), (test == CLASSES[1]).astype(np.int64)
