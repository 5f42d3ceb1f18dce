"""Uncertainty-aware LiDAR bird's-eye-view 3D object detection.

A desk-scale, fully deterministic pipeline: point-cloud IO, BEV
rasterization, oriented-box geometry, anchor and proposal codecs, an
attenuated multi-task objective with analytic gradients, a small
two-stage detector with log-variance heads, a synthetic scene generator
with a known label-noise law, AP evaluation, and uncertainty analysis.
"""

__version__ = "0.1.0"

from .bevraster import BevGrid, RangeSpec, rasterize, read_grid, write_grid
from .boxgeom import (Box3D, aa_envelope, bev_corners, box_extents,
                      intersection_area_bev, iou_3d, iou_aa, iou_bev_rotated,
                      nms_indices, wrap_angle)
from .codec import (assign, decode_frh, decode_rpn, encode_frh, encode_rpn,
                    kmeans_anchor_dims)
from .errors import (BadEdges, ConfigError, DecodeError, DegenerateInput,
                     DivergenceError, FormatError, InsufficientData, NoGroundTruth,
                     OutOfGrid, PlacementError, ShapeError, SpecError)
from .losses import (LossBreakdown, attenuated_term, cross_entropy, multi_loss,
                     smooth_l1)
from .metrics import EvalResult, MatchResult, average_precision, evaluate, match
from .model import (AnchorLayout, Detection, InferConfig, ModelParams,
                    TrainConfig, anchor_features, build_anchor_set,
                    build_training_set, featurize, gradcheck, infer,
                    init_params, load_params, save_params, train)
from .pcio import (Difficulty, GroundTruthObject, ObjectClass, PointCloud,
                   load_cloud, load_labels, save_cloud, save_labels)
from .synthgen import (ObjectNoise, SceneSpec, SyntheticScene, difficulty_of,
                       generate, generate_scenes, load_scene, save_scene)
from .uncstats import (BinStat, UncertaintyRecord, base_angle_offset,
                       binned_means, difficulty_histogram, filter_confident,
                       pearson, records_from_detections, total_variance)
