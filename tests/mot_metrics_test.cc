// Tests for the MOT metrics (CLEAR-MOT protocol).

#include <gtest/gtest.h>

#include "track/mot_metrics.h"
#include "track/tracker.h"

namespace vqe {
namespace {

Track Trk(int64_t id, double x, double y, double w, double h,
          ClassId label = 0) {
  Track t;
  t.track_id = id;
  t.label = label;
  t.box = BBox::FromXYWH(x, y, w, h);
  return t;
}

GroundTruthBox Gt(int64_t object_id, double x, double y, double w, double h,
                  ClassId label = 0) {
  GroundTruthBox g;
  g.object_id = object_id;
  g.label = label;
  g.box = BBox::FromXYWH(x, y, w, h);
  return g;
}

// ------------------------------------------------------------ MOT metrics --

TEST(MotMetricsTest, PerfectTrackingScoresMotaOne) {
  std::vector<TrackFrame> tracks;
  std::vector<GroundTruthList> gts;
  for (int f = 0; f < 5; ++f) {
    tracks.push_back({Trk(1, 10.0 * f, 0, 20, 20)});
    gts.push_back({Gt(100, 10.0 * f, 0, 20, 20)});
  }
  const MotMetrics m = EvaluateMot(tracks, gts);
  EXPECT_EQ(m.num_gt, 5u);
  EXPECT_EQ(m.matches, 5u);
  EXPECT_EQ(m.misses, 0u);
  EXPECT_EQ(m.false_positives, 0u);
  EXPECT_EQ(m.id_switches, 0u);
  EXPECT_DOUBLE_EQ(m.Mota(), 1.0);
  EXPECT_NEAR(m.Motp(), 1.0, 1e-9);
}

TEST(MotMetricsTest, MissesAndFalsePositives) {
  // Frame 0: GT present, no track (miss). Frame 1: track, no GT (FP).
  std::vector<TrackFrame> tracks{{}, {Trk(1, 0, 0, 20, 20)}};
  std::vector<GroundTruthList> gts{{Gt(100, 0, 0, 20, 20)}, {}};
  const MotMetrics m = EvaluateMot(tracks, gts);
  EXPECT_EQ(m.misses, 1u);
  EXPECT_EQ(m.false_positives, 1u);
  EXPECT_EQ(m.num_gt, 1u);
  EXPECT_DOUBLE_EQ(m.Mota(), 1.0 - 2.0);  // can go negative
}

TEST(MotMetricsTest, IdSwitchCounted) {
  // Same GT object matched by track 1, then track 2.
  std::vector<TrackFrame> tracks{{Trk(1, 0, 0, 20, 20)},
                                 {Trk(2, 0, 0, 20, 20)}};
  std::vector<GroundTruthList> gts{{Gt(100, 0, 0, 20, 20)},
                                   {Gt(100, 0, 0, 20, 20)}};
  const MotMetrics m = EvaluateMot(tracks, gts);
  EXPECT_EQ(m.id_switches, 1u);
  EXPECT_EQ(m.matches, 2u);
  EXPECT_NEAR(m.Mota(), 1.0 - 0.5, 1e-9);
}

TEST(MotMetricsTest, GapWithoutSwitchIsNotASwitch) {
  // Object matched by track 1, unmatched a frame, matched by track 1 again.
  std::vector<TrackFrame> tracks{{Trk(1, 0, 0, 20, 20)},
                                 {},
                                 {Trk(1, 0, 0, 20, 20)}};
  std::vector<GroundTruthList> gts{{Gt(100, 0, 0, 20, 20)},
                                   {Gt(100, 0, 0, 20, 20)},
                                   {Gt(100, 0, 0, 20, 20)}};
  const MotMetrics m = EvaluateMot(tracks, gts);
  EXPECT_EQ(m.id_switches, 0u);
  EXPECT_EQ(m.misses, 1u);
}

TEST(MotMetricsTest, ClassGateAndIouGate) {
  // Wrong class: never matched despite perfect overlap.
  std::vector<TrackFrame> tracks{{Trk(1, 0, 0, 20, 20, /*label=*/1)}};
  std::vector<GroundTruthList> gts{{Gt(100, 0, 0, 20, 20, /*label=*/0)}};
  MotMetrics m = EvaluateMot(tracks, gts);
  EXPECT_EQ(m.matches, 0u);

  // IoU below gate: unmatched.
  tracks = {{Trk(1, 15, 0, 20, 20)}};
  gts = {{Gt(100, 0, 0, 20, 20)}};
  m = EvaluateMot(tracks, gts, /*iou_gate=*/0.5);
  EXPECT_EQ(m.matches, 0u);
  m = EvaluateMot(tracks, gts, /*iou_gate=*/0.1);
  EXPECT_EQ(m.matches, 1u);
}

TEST(MotMetricsTest, GreedyPrefersHighestIoU) {
  // Two GTs, one track overlapping both; it must claim the better one.
  std::vector<TrackFrame> tracks{{Trk(1, 2, 0, 20, 20)}};
  std::vector<GroundTruthList> gts{
      {Gt(100, 0, 0, 20, 20), Gt(101, 10, 0, 20, 20)}};
  const MotMetrics m = EvaluateMot(tracks, gts, 0.1);
  EXPECT_EQ(m.matches, 1u);
  EXPECT_EQ(m.misses, 1u);
  EXPECT_GT(m.Motp(), 0.7);  // matched the near-identical GT
}

TEST(MotMetricsTest, EmptySequences) {
  const MotMetrics m = EvaluateMot({}, {});
  EXPECT_DOUBLE_EQ(m.Mota(), 1.0);
  EXPECT_DOUBLE_EQ(m.Motp(), 0.0);
}

TEST(MotMetricsTest, EndToEndTrackerScoresReasonably) {
  // Drive the real tracker over clean synthetic detections of two moving
  // objects and check MOTA is high.
  std::vector<TrackFrame> track_frames;
  std::vector<GroundTruthList> gt_frames;
  IouTracker tracker;
  for (int f = 0; f < 30; ++f) {
    GroundTruthList gts{Gt(1, 5.0 * f, 0, 40, 40, 0),
                        Gt(2, 500 - 5.0 * f, 100, 40, 40, 0)};
    DetectionList dets;
    for (const auto& g : gts) {
      Detection d;
      d.box = g.box;
      d.confidence = 0.9;
      d.label = g.label;
      dets.push_back(d);
    }
    tracker.Update(dets, f);
    TrackFrame active;
    for (const Track& t : tracker.tracks()) {
      if (t.UpdatedThisFrame()) active.push_back(t);
    }
    track_frames.push_back(active);
    gt_frames.push_back(gts);
  }
  const MotMetrics m = EvaluateMot(track_frames, gt_frames);
  EXPECT_GT(m.Mota(), 0.95);
  EXPECT_EQ(m.id_switches, 0u);
}

}  // namespace
}  // namespace vqe
