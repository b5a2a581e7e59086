"""Desk-scale training toolkit for imbalanced chest X-ray classification."""

from .autodiff import (Variable, add, avg_pool2d, backward, batch_norm, concat_channels,
                       constant, conv2d, global_avg_pool, grad_check, grad_check_directional,
                       linear, max_pool2d, relu)
from .checkpoint import (CheckpointError, load_checkpoint, model_from_checkpoint,
                         read_checkpoint, save_checkpoint)
from .dataset import (ClassLabel, DataBundle, ManifestConfig, SampleRecord, binary_filter,
                      class_distribution, compute_class_weights, default_mapping, from_manifest,
                      make_batch, one_hot, parse_manifest, sample_weights,
                      stratified_val_split, weighted_sample)
from .images import (GrayImage, augment, hflip, intensity_histogram, load_image, read_pgm,
                     resize_bilinear, rotate, to_unit_float, vflip, write_pgm)
from .losses import cross_entropy, focal_loss
from .metrics import accuracy, confusion, epoch_average_accuracy, predictions
from .nn import (ArchitectureConfig, Model, ParameterStore, build_model, freeze_backbone,
                 mini_densenet, mini_resnet, replace_head)
from .rng import Pcg32, derive_stream
from .synth import make_synthetic_dataset, manifest_csv, synthetic_bundle, write_synthetic_dataset
from .training import (Adam, EpochMetrics, PRESETS, Preset, RunRecord, TrainConfig,
                       TrainingAborted, canonical_preset, evaluate, export_metrics, fit,
                       lr_at_epoch, make_loss, train_epoch)

__version__ = "0.1.0"
