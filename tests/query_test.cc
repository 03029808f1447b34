// Tests for the video-query dialect: lexer, parser, predicate evaluation,
// and the streaming executor.

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <string>

#include "query/executor.h"
#include "query/explain.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "query/predicate.h"

namespace vqe {
namespace {

// ------------------------------------------------------------------ lexer --

TEST(LexerTest, TokenizesBasicQuery) {
  const auto tokens = Tokenize("SELECT frameID FROM (x)");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 7u);  // SELECT frameID FROM ( x ) END
  EXPECT_EQ((*tokens)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[3].type, TokenType::kLParen);
  EXPECT_EQ((*tokens)[6].type, TokenType::kEnd);
}

TEST(LexerTest, IdentifiersAllowModelAndDatasetNames) {
  const auto tokens = Tokenize("yolov7-tiny@night c&n bdd-rainy");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 4u);
  EXPECT_EQ((*tokens)[0].text, "yolov7-tiny@night");
  EXPECT_EQ((*tokens)[1].text, "c&n");
  EXPECT_EQ((*tokens)[2].text, "bdd-rainy");
}

TEST(LexerTest, NumbersAndOperators) {
  const auto tokens = Tokenize(">= 2.5 != 3 < 1");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, ">=");
  EXPECT_DOUBLE_EQ((*tokens)[1].number, 2.5);
  EXPECT_EQ((*tokens)[2].text, "!=");
  EXPECT_EQ((*tokens)[4].text, "<");
}

TEST(LexerTest, StringsAndErrors) {
  const auto ok = Tokenize("'hello world'");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)[0].type, TokenType::kString);
  EXPECT_EQ((*ok)[0].text, "hello world");

  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
  EXPECT_FALSE(Tokenize("a # b").ok());
}

// ----------------------------------------------------------------- parser --

constexpr const char* kBasicQuery =
    "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
    "USING MES(yolov7-tiny@clear, yolov7-tiny@night; REF)) "
    "WHERE COUNT(car) >= 2";

TEST(ParserTest, ParsesBasicQuery) {
  const auto q = ParseQuery(kBasicQuery);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select_column, "frameID");
  EXPECT_EQ(q->video_name, "nusc");
  EXPECT_EQ(q->using_clause.strategy, "MES");
  ASSERT_EQ(q->using_clause.detector_names.size(), 2u);
  EXPECT_EQ(q->using_clause.detector_names[1], "yolov7-tiny@night");
  EXPECT_TRUE(q->using_clause.has_reference);
  ASSERT_NE(q->where, nullptr);
  EXPECT_EQ(q->where->type, Predicate::Type::kComparison);
  EXPECT_EQ(q->where->aggregate.kind, AggregateKind::kCount);
  EXPECT_EQ(q->where->aggregate.class_name, "car");
  EXPECT_EQ(q->where->op, CompareOp::kGe);
  EXPECT_DOUBLE_EQ(q->where->value, 2.0);
}

TEST(ParserTest, KeywordsCaseInsensitive) {
  const auto q = ParseQuery(
      "select frameID from (process nusc produce frameID, detections "
      "using mes(*; ref))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->using_clause.detector_names.empty());  // '*' = default pool
  EXPECT_TRUE(q->using_clause.has_reference);
}

TEST(ParserTest, NoWhereClauseMatchesAll) {
  const auto q = ParseQuery(
      "SELECT frameID FROM (PROCESS nusc-night PRODUCE frameID, Detections "
      "USING BF(*))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->where, nullptr);
  EXPECT_FALSE(q->using_clause.has_reference);
}

TEST(ParserTest, BooleanOperatorsAndPrecedence) {
  const auto q = ParseQuery(
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; REF)) "
      "WHERE COUNT(car) >= 1 OR COUNT(bus) >= 1 AND NOT EXISTS(pedestrian)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // OR binds loosest: root is OR with AND on the right.
  ASSERT_EQ(q->where->type, Predicate::Type::kOr);
  EXPECT_EQ(q->where->lhs->type, Predicate::Type::kComparison);
  ASSERT_EQ(q->where->rhs->type, Predicate::Type::kAnd);
  EXPECT_EQ(q->where->rhs->rhs->type, Predicate::Type::kNot);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  const auto q = ParseQuery(
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; REF)) "
      "WHERE (COUNT(car) >= 1 OR COUNT(bus) >= 1) AND COUNT(truck) = 0");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->where->type, Predicate::Type::kAnd);
  EXPECT_EQ(q->where->lhs->type, Predicate::Type::kOr);
}

TEST(ParserTest, BudgetAndLimit) {
  const auto q = ParseQuery(
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES-B(*; REF)) WHERE COUNT(*) >= 1 BUDGET 5000 LIMIT 10");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_DOUBLE_EQ(q->budget_ms, 5000.0);
  EXPECT_EQ(q->limit, 10u);
}

TEST(ParserTest, ProcessModifiers) {
  const auto q = ParseQuery(
      "SELECT frameID FROM (PROCESS nusc SCALE 0.1 SEED 42 STRIDE 3 "
      "PRODUCE frameID, Detections USING MES(*; REF))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_DOUBLE_EQ(q->process.scale, 0.1);
  EXPECT_EQ(q->process.seed, 42u);
  EXPECT_EQ(q->process.stride, 3u);

  // Defaults when absent.
  const auto q2 = ParseQuery(
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; REF))");
  ASSERT_TRUE(q2.ok());
  EXPECT_DOUBLE_EQ(q2->process.scale, 0.0);
  EXPECT_EQ(q2->process.stride, 1u);

  // Invalid modifier values.
  EXPECT_FALSE(ParseQuery("SELECT frameID FROM (PROCESS nusc SCALE 0 "
                          "PRODUCE frameID, Detections USING MES(*; REF))")
                   .ok());
  EXPECT_FALSE(ParseQuery("SELECT frameID FROM (PROCESS nusc SCALE 1.5 "
                          "PRODUCE frameID, Detections USING MES(*; REF))")
                   .ok());
  EXPECT_FALSE(ParseQuery("SELECT frameID FROM (PROCESS nusc STRIDE 0 "
                          "PRODUCE frameID, Detections USING MES(*; REF))")
                   .ok());
  EXPECT_FALSE(ParseQuery("SELECT frameID FROM (PROCESS nusc SEED 0 "
                          "PRODUCE frameID, Detections USING MES(*; REF))")
                   .ok());
}

TEST(ParserTest, ExistsDesugarsToGeOne) {
  const auto q = ParseQuery(
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; REF)) WHERE EXISTS(car)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where->aggregate.kind, AggregateKind::kExists);
  EXPECT_EQ(q->where->op, CompareOp::kGe);
  EXPECT_DOUBLE_EQ(q->where->value, 1.0);
}

TEST(ParserTest, ConfidenceAggregates) {
  const auto q = ParseQuery(
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; REF)) WHERE MAX_CONF(car) > 0.8 AND AVG_CONF(*) >= 0.3");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->where->lhs->aggregate.kind, AggregateKind::kMaxConf);
  EXPECT_EQ(q->where->rhs->aggregate.kind, AggregateKind::kAvgConf);
  EXPECT_EQ(q->where->rhs->aggregate.class_name, "*");
}

TEST(ParserTest, RejectsMalformedQueries) {
  const char* bad[] = {
      "",
      "SELECT detections FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; REF))",  // only frameID selectable
      "SELECT frameID FROM PROCESS nusc",  // missing parens
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID USING MES(*; REF))",
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; LIDAR))",  // REF misspelt
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; REF)) WHERE COUNT(car) >=",  // dangling operator
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; REF)) WHERE FROBNICATE(car) > 1",  // unknown aggregate
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; REF)) LIMIT 0",  // bad limit
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; REF)) BUDGET 0",  // bad budget
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; REF)) trailing garbage",
  };
  for (const char* sql : bad) {
    EXPECT_FALSE(ParseQuery(sql).ok()) << sql;
  }
}

// -------------------------------------------------------------- predicate --

Detection Det(double conf, ClassId label) {
  Detection d;
  d.box = BBox::FromXYWH(0, 0, 10, 10);
  d.confidence = conf;
  d.label = label;
  return d;
}

TEST(PredicateTest, CountAggregate) {
  AggregateExpr agg;
  agg.kind = AggregateKind::kCount;
  agg.class_name = "car";  // class id 0
  const DetectionList dets{Det(0.9, 0), Det(0.8, 0), Det(0.9, 1),
                           Det(0.1, 0)};  // last below min_confidence
  EXPECT_DOUBLE_EQ(EvaluateAggregate(agg, dets), 2.0);
  agg.class_name = "*";
  EXPECT_DOUBLE_EQ(EvaluateAggregate(agg, dets), 3.0);
  agg.class_name = "unknown-class";
  EXPECT_DOUBLE_EQ(EvaluateAggregate(agg, dets), 0.0);
}

TEST(PredicateTest, ConfidenceAggregates) {
  AggregateExpr max_conf;
  max_conf.kind = AggregateKind::kMaxConf;
  AggregateExpr avg_conf;
  avg_conf.kind = AggregateKind::kAvgConf;
  const DetectionList dets{Det(0.9, 0), Det(0.5, 0)};
  EXPECT_DOUBLE_EQ(EvaluateAggregate(max_conf, dets), 0.9);
  EXPECT_DOUBLE_EQ(EvaluateAggregate(avg_conf, dets), 0.7);
  EXPECT_DOUBLE_EQ(EvaluateAggregate(max_conf, {}), 0.0);
  EXPECT_DOUBLE_EQ(EvaluateAggregate(avg_conf, {}), 0.0);
}

TEST(PredicateTest, BooleanEvaluation) {
  auto cmp = [](AggregateKind kind, const std::string& cls, CompareOp op,
                double value) {
    auto p = std::make_unique<Predicate>();
    p->type = Predicate::Type::kComparison;
    p->aggregate.kind = kind;
    p->aggregate.class_name = cls;
    p->op = op;
    p->value = value;
    return p;
  };
  const DetectionList dets{Det(0.9, 0), Det(0.8, 0), Det(0.9, 2)};

  auto both = std::make_unique<Predicate>();
  both->type = Predicate::Type::kAnd;
  both->lhs = cmp(AggregateKind::kCount, "car", CompareOp::kGe, 2);
  both->rhs = cmp(AggregateKind::kExists, "bus", CompareOp::kGe, 1);
  EXPECT_TRUE(EvaluatePredicate(both.get(), dets));

  auto negated = std::make_unique<Predicate>();
  negated->type = Predicate::Type::kNot;
  negated->lhs = cmp(AggregateKind::kCount, "car", CompareOp::kGe, 2);
  EXPECT_FALSE(EvaluatePredicate(negated.get(), dets));

  auto either = std::make_unique<Predicate>();
  either->type = Predicate::Type::kOr;
  either->lhs = cmp(AggregateKind::kCount, "truck", CompareOp::kGe, 1);
  either->rhs = cmp(AggregateKind::kCount, "car", CompareOp::kGe, 1);
  EXPECT_TRUE(EvaluatePredicate(either.get(), dets));

  EXPECT_TRUE(EvaluatePredicate(nullptr, dets));  // no WHERE: match all
}

TEST(PredicateTest, ComparisonOperators) {
  auto make = [](CompareOp op, double value) {
    Predicate p;
    p.type = Predicate::Type::kComparison;
    p.aggregate.kind = AggregateKind::kCount;
    p.aggregate.class_name = "*";
    p.op = op;
    p.value = value;
    return p;
  };
  const DetectionList dets{Det(0.9, 0), Det(0.8, 0)};  // count = 2
  EXPECT_TRUE(EvaluatePredicate(&*std::make_unique<Predicate>(
                                    make(CompareOp::kEq, 2)),
                                dets));
  Predicate p;
  p = make(CompareOp::kNe, 3);
  EXPECT_TRUE(EvaluatePredicate(&p, dets));
  p = make(CompareOp::kLt, 3);
  EXPECT_TRUE(EvaluatePredicate(&p, dets));
  p = make(CompareOp::kLe, 2);
  EXPECT_TRUE(EvaluatePredicate(&p, dets));
  p = make(CompareOp::kGt, 2);
  EXPECT_FALSE(EvaluatePredicate(&p, dets));
  p = make(CompareOp::kGe, 3);
  EXPECT_FALSE(EvaluatePredicate(&p, dets));
}

TEST(PredicateTest, ValidationCatchesUnknownClass) {
  Predicate p;
  p.type = Predicate::Type::kComparison;
  p.aggregate.class_name = "unicorn";
  EXPECT_FALSE(ValidatePredicate(&p).ok());
  p.aggregate.class_name = "car";
  EXPECT_TRUE(ValidatePredicate(&p).ok());
  p.aggregate.class_name = "*";
  EXPECT_TRUE(ValidatePredicate(&p).ok());
  EXPECT_TRUE(ValidatePredicate(nullptr).ok());
}

TEST(PredicateTest, ValidationCatchesMalformedTrees) {
  Predicate p;
  p.type = Predicate::Type::kAnd;  // missing operands
  EXPECT_FALSE(ValidatePredicate(&p).ok());
  p.type = Predicate::Type::kNot;
  EXPECT_FALSE(ValidatePredicate(&p).ok());
}

// --------------------------------------------------------------- executor --

QueryEngineOptions SmallOptions() {
  QueryEngineOptions opt;
  opt.scene_scale = 0.02;
  opt.seed = 3;
  return opt;
}

TEST(ExecutorTest, EndToEndBasicQuery) {
  const auto out = ExecuteQuery(kBasicQuery, SmallOptions());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(out->frames_processed, 100u);
  EXPECT_GT(out->frames_matched, 0u);
  EXPECT_LE(out->frames_matched, out->frames_processed);
  EXPECT_EQ(out->frame_ids.size(), out->frames_matched);
  EXPECT_GT(out->charged_cost_ms, 0.0);
  EXPECT_GT(out->reference_cost_ms, 0.0);
  EXPECT_EQ(out->model_names.size(), 2u);
  // frameIDs ascending.
  for (size_t i = 1; i < out->frame_ids.size(); ++i) {
    EXPECT_LT(out->frame_ids[i - 1], out->frame_ids[i]);
  }
}

TEST(ExecutorTest, DeterministicInSeed) {
  const auto a = ExecuteQuery(kBasicQuery, SmallOptions());
  const auto b = ExecuteQuery(kBasicQuery, SmallOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->frame_ids, b->frame_ids);
}

TEST(ExecutorTest, LimitStopsEarly) {
  QueryEngineOptions opt = SmallOptions();
  const std::string sql = std::string(kBasicQuery) + " LIMIT 5";
  const auto out = ExecuteQuery(sql, opt);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->frames_matched, 5u);
  const auto full = ExecuteQuery(kBasicQuery, opt);
  EXPECT_LT(out->frames_processed, full->frames_processed);
}

TEST(ExecutorTest, BudgetLimitsProcessing) {
  const std::string sql =
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES-B(yolov7-tiny@clear, yolov7-tiny@night; REF)) "
      "WHERE COUNT(*) >= 1 BUDGET 3000";
  const auto out = ExecuteQuery(sql, SmallOptions());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // 3000ms budget with >= 10ms frames: far fewer than the full video.
  EXPECT_LT(out->frames_processed, 300u);
  EXPECT_LE(out->charged_cost_ms, 3000.0 + 100.0);
}

TEST(ExecutorTest, DefaultPoolWithStar) {
  const auto out = ExecuteQuery(
      "SELECT frameID FROM (PROCESS nusc-night PRODUCE frameID, Detections "
      "USING MES(*; REF))",
      SmallOptions());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->model_names.size(), 5u);  // default nuScenes pool
  EXPECT_EQ(out->frames_matched, out->frames_processed);  // no WHERE
}

TEST(ExecutorTest, NonLearningStrategiesSkipReference) {
  const auto out = ExecuteQuery(
      "SELECT frameID FROM (PROCESS nusc-night PRODUCE frameID, Detections "
      "USING BF(yolov7-tiny@clear, yolov7-tiny@night))",
      SmallOptions());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_DOUBLE_EQ(out->reference_cost_ms, 0.0);
}

TEST(ExecutorTest, ErrorPaths) {
  const QueryEngineOptions opt = SmallOptions();
  // Unknown dataset.
  EXPECT_FALSE(ExecuteQuery("SELECT frameID FROM (PROCESS kitti PRODUCE "
                            "frameID, Detections USING MES(*; REF))",
                            opt)
                   .ok());
  // Unknown detector.
  EXPECT_FALSE(ExecuteQuery("SELECT frameID FROM (PROCESS nusc PRODUCE "
                            "frameID, Detections USING MES(yolo99@clear; "
                            "REF))",
                            opt)
                   .ok());
  // MES without REF.
  EXPECT_FALSE(ExecuteQuery("SELECT frameID FROM (PROCESS nusc PRODUCE "
                            "frameID, Detections USING MES(*))",
                            opt)
                   .ok());
  // Oracle strategy in an online query.
  EXPECT_FALSE(ExecuteQuery("SELECT frameID FROM (PROCESS nusc PRODUCE "
                            "frameID, Detections USING OPT(*))",
                            opt)
                   .ok());
  // MES-B without budget.
  EXPECT_FALSE(ExecuteQuery("SELECT frameID FROM (PROCESS nusc PRODUCE "
                            "frameID, Detections USING MES-B(*; REF))",
                            opt)
                   .ok());
  // Unknown strategy.
  EXPECT_FALSE(ExecuteQuery("SELECT frameID FROM (PROCESS nusc PRODUCE "
                            "frameID, Detections USING ZEUS(*; REF))",
                            opt)
                   .ok());
  // Unknown class in WHERE.
  EXPECT_FALSE(ExecuteQuery("SELECT frameID FROM (PROCESS nusc PRODUCE "
                            "frameID, Detections USING MES(*; REF)) "
                            "WHERE COUNT(unicorn) >= 1",
                            opt)
                   .ok());
  // Bad options.
  QueryEngineOptions bad = opt;
  bad.scene_scale = 0.0;
  EXPECT_FALSE(ExecuteQuery(kBasicQuery, bad).ok());
}

// USING resolves through the core strategy registry, so D-MES runs in a
// query too; like every REF-learning strategy it needs the REF clause.
TEST(ExecutorTest, DMesResolvesThroughTheRegistry) {
  const auto out = ExecuteQuery(
      "SELECT frameID FROM (PROCESS nusc-night PRODUCE frameID, Detections "
      "USING D-MES(*; REF)) WHERE COUNT(car) >= 1",
      SmallOptions());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(out->frames_processed, 0u);
  EXPECT_GT(out->reference_cost_ms, 0.0);
  EXPECT_EQ(ExecuteQuery("SELECT frameID FROM (PROCESS nusc-night PRODUCE "
                         "frameID, Detections USING D-MES(*))",
                         SmallOptions())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ExecutorTest, StrideSkipsFrames) {
  QueryEngineOptions opt = SmallOptions();
  const auto full = ExecuteQuery(
      "SELECT frameID FROM (PROCESS nusc-night PRODUCE frameID, Detections "
      "USING BF(yolov7-tiny@clear))",
      opt);
  const auto strided = ExecuteQuery(
      "SELECT frameID FROM (PROCESS nusc-night STRIDE 4 PRODUCE frameID, "
      "Detections USING BF(yolov7-tiny@clear))",
      opt);
  ASSERT_TRUE(full.ok() && strided.ok());
  // Every 4th frame: a quarter of the frames (rounded up), a quarter of
  // the inference cost.
  EXPECT_EQ(strided->frames_processed, (full->frames_processed + 3) / 4);
  EXPECT_LT(strided->charged_cost_ms, 0.3 * full->charged_cost_ms);
  // Emitted frameIDs respect the stride.
  for (int64_t id : strided->frame_ids) {
    EXPECT_EQ(id % 4, 0);
  }
}

TEST(ExecutorTest, SqlScaleAndSeedOverrideEngineDefaults) {
  QueryEngineOptions opt = SmallOptions();  // scale 0.02, seed 3
  const auto a = ExecuteQuery(
      "SELECT frameID FROM (PROCESS nusc-night SCALE 0.05 SEED 9 PRODUCE "
      "frameID, Detections USING BF(yolov7-tiny@clear))",
      opt);
  const auto b = ExecuteQuery(
      "SELECT frameID FROM (PROCESS nusc-night PRODUCE frameID, Detections "
      "USING BF(yolov7-tiny@clear))",
      opt);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GE(a->frames_processed, 2 * b->frames_processed);  // larger replica
}

// ----------------------------------------------------------------- window --

TEST(ParserTest, WindowClauseParsesAndRecordsPosition) {
  const std::string sql =
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING SW-MES(*; REF)) WINDOW 64";
  const auto q = ParseQuery(sql);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->window, 64u);
  EXPECT_EQ(q->window_pos, sql.find("WINDOW"));
  EXPECT_NE(ExplainQuery(*q).find("window=64"), std::string::npos);
}

TEST(ParserTest, WindowOrdersAfterBudgetBeforeLimit) {
  const auto q = ParseQuery(
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING SW-MES(*; REF)) BUDGET 500 WINDOW 16 LIMIT 3");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_DOUBLE_EQ(q->budget_ms, 500.0);
  EXPECT_EQ(q->window, 16u);
  EXPECT_EQ(q->limit, 3u);
}

TEST(ParserTest, WindowRejectsDegenerateLengths) {
  EXPECT_FALSE(ParseQuery("SELECT frameID FROM (PROCESS nusc PRODUCE "
                          "frameID, Detections USING SW-MES(*; REF)) "
                          "WINDOW 1")
                   .ok());
  EXPECT_FALSE(ParseQuery("SELECT frameID FROM (PROCESS nusc PRODUCE "
                          "frameID, Detections USING SW-MES(*; REF)) "
                          "WINDOW")
                   .ok());
}

TEST(ExecutorTest, WindowMapsOntoSwMesWindow) {
  QueryEngineOptions opt = SmallOptions();
  const auto with_clause = ExecuteQuery(
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING SW-MES(*; REF)) WINDOW 32",
      opt);
  ASSERT_TRUE(with_clause.ok()) << with_clause.status().ToString();
  // The clause must act exactly like configuring the engine default.
  QueryEngineOptions tuned = opt;
  tuned.sw_window = 32;
  const auto via_options = ExecuteQuery(
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING SW-MES(*; REF))",
      tuned);
  ASSERT_TRUE(via_options.ok()) << via_options.status().ToString();
  EXPECT_EQ(with_clause->frame_ids, via_options->frame_ids);
  EXPECT_EQ(with_clause->selection_counts, via_options->selection_counts);
  EXPECT_DOUBLE_EQ(with_clause->charged_cost_ms, via_options->charged_cost_ms);
}

TEST(ExecutorTest, WindowRejectedForNonSlidingStrategies) {
  const std::string sql =
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; REF)) WINDOW 64";
  const auto out = ExecuteQuery(sql, SmallOptions());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  // The diagnostic points back at the offending clause.
  EXPECT_NE(out.status().message().find(
                "offset " + std::to_string(sql.find("WINDOW"))),
            std::string::npos)
      << out.status().ToString();
  // Other non-sliding strategies reject too.
  EXPECT_FALSE(ExecuteQuery("SELECT frameID FROM (PROCESS nusc PRODUCE "
                            "frameID, Detections USING BF(*)) WINDOW 8",
                            SmallOptions())
                   .ok());
}

TEST(ExecutorTest, SelectiveVsBroadPredicates) {
  QueryEngineOptions opt = SmallOptions();
  const auto broad = ExecuteQuery(
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; REF)) WHERE COUNT(*) >= 1",
      opt);
  const auto narrow = ExecuteQuery(
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; REF)) WHERE COUNT(*) >= 6 AND MAX_CONF(car) > 0.9",
      opt);
  ASSERT_TRUE(broad.ok() && narrow.ok());
  EXPECT_GT(broad->frames_matched, narrow->frames_matched);
}


// ----------------------------------------------------------------- golden --

// Golden outputs pin the executor end to end. Each digest covers every
// QueryOutput field except wall_seconds and the per-invocation checkpoint
// report, doubles by bit pattern, so any drift in selection, fusion and
// scoring, fault handling, skip gating or tracking changes it. The cases
// cover the paths the benchmark's query mix leaves out: strategies that
// run without REF (BF, RAND, EF), user-named pools, and faults that run
// retries and trip breakers.

class QueryDigest {
 public:
  explicit QueryDigest(const QueryOutput& out) {
    Add(out.frame_ids.size());
    for (const int64_t id : out.frame_ids) Add(static_cast<uint64_t>(id));
    Add(out.frames_processed);
    Add(out.frames_matched);
    AddDouble(out.charged_cost_ms);
    AddDouble(out.reference_cost_ms);
    Add(out.selection_counts.size());
    for (const uint64_t c : out.selection_counts) Add(c);
    Add(out.model_names.size());
    for (const std::string& name : out.model_names) {
      Add(name.size());
      for (const char c : name) Add(static_cast<uint8_t>(c));
    }
    Add(out.fallback_frames);
    Add(out.failed_frames);
    AddDouble(out.fault_ms);
    Add(out.model_failures.size());
    for (const uint64_t f : out.model_failures) Add(f);
    Add(out.skipped_frames);
    AddDouble(out.tracker_ms);
  }

  uint64_t value() const { return h_; }

 private:
  void Add(uint64_t v) {  // FNV-1a, one byte at a time
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 1099511628211ull;
    }
  }
  void AddDouble(double v) { Add(std::bit_cast<uint64_t>(v)); }

  uint64_t h_ = 1469598103934665603ull;
};

QueryOutput ExpectGolden(const std::string& sql,
                         const QueryEngineOptions& options, uint64_t digest) {
  const Result<QueryOutput> out = ExecuteQuery(sql, options);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) return {};
  EXPECT_GT(out->frames_processed, 20u);
  EXPECT_EQ(QueryDigest(*out).value(), digest)
      << "actual digest 0x" << std::hex << QueryDigest(*out).value();
  return *out;
}

std::string GoldenSql(const std::string& process, const std::string& rest) {
  return "SELECT frameID FROM (PROCESS " + process +
         " PRODUCE frameID, Detections USING " + rest;
}

TEST(GoldenQueryTest, Mes) {
  ExpectGolden(GoldenSql("nusc SCALE 0.005 SEED 11",
                         "MES(*; REF)) WHERE COUNT(car) >= 2"),
               {}, 0x9de1dab30d4cdffaull);
}

TEST(GoldenQueryTest, MesAOnNamedPool) {
  ExpectGolden(GoldenSql("nusc-night SCALE 0.05 SEED 12",
                         "MES-A(yolov7-tiny@clear, yolov7-tiny@night, "
                         "yolov7@clear; REF)) WHERE EXISTS(pedestrian)"),
               {}, 0xf482d2c8f994bea8ull);
}

TEST(GoldenQueryTest, MesBWithBudget) {
  const QueryOutput out = ExpectGolden(
      GoldenSql("bdd SCALE 0.014 SEED 13",
                "MES-B(*; REF)) WHERE COUNT(*) >= 1 BUDGET 30000"),
      {}, 0x410fd780e9b684acull);
  EXPECT_GT(out.charged_cost_ms, 30000.0) << "the budget must stop the run";
}

TEST(GoldenQueryTest, SwMesWithWindow) {
  ExpectGolden(GoldenSql("'c&n' SCALE 0.012 SEED 14",
                         "SW-MES(*; REF)) WHERE EXISTS(car) WINDOW 40"),
               {}, 0x6e9da10cd1b2fe7aull);
}

TEST(GoldenQueryTest, BfOnNamedPool) {
  const QueryOutput out = ExpectGolden(
      GoldenSql("nusc-night SCALE 0.05 SEED 15",
                "BF(yolov7-tiny@clear, yolov7@night)) WHERE COUNT(car) >= 1"),
      {}, 0xc02d553f2e888e68ull);
  EXPECT_EQ(out.reference_cost_ms, 0.0);
}

TEST(GoldenQueryTest, Rand) {
  ExpectGolden(GoldenSql("nusc SCALE 0.005 SEED 16",
                         "RAND(*)) WHERE MAX_CONF(car) >= 0.5"),
               {}, 0x48e614d24dd17486ull);
}

TEST(GoldenQueryTest, Ef) {
  ExpectGolden(GoldenSql("bdd SCALE 0.007 SEED 17",
                         "EF(*)) WHERE COUNT(*) >= 2 LIMIT 50"),
               {}, 0x976cd2b46f1ab82full);
}

TEST(GoldenQueryTest, Tracks) {
  ExpectGolden(GoldenSql("nusc-night SCALE 0.05 SEED 18",
                         "MES(*; REF)) WHERE TRACKS(car) >= 1"),
               {}, 0xd7ff9a61b2510e09ull);
}

TEST(GoldenQueryTest, SkipGated) {
  QueryEngineOptions options;
  options.skip.mode = SkipMode::kDifficultyGated;
  options.skip.skip_budget = 3;
  const QueryOutput out = ExpectGolden(
      GoldenSql("nusc-rainy SCALE 0.022 SEED 19",
                "MES(*; REF)) WHERE COUNT(car) >= 1"),
      options, 0x1639352a5b2890d3ull);
  EXPECT_GT(out.skipped_frames, 0u);
}

TEST(GoldenQueryTest, FaultedWithRetriesAndBreakers) {
  QueryEngineOptions options;
  options.matrix.retry.max_attempts = 2;
  options.matrix.retry.deadline_ms = 60.0;
  options.breaker.failure_threshold = 2;
  options.breaker.open_frames = 4;
  options.fault_scripts.resize(3);
  // A hard outage that retries cannot clear: model 0's breaker trips,
  // its half-open probes re-trip it, and it closes after the burst.
  options.fault_scripts[0].bursts.push_back({5, 40, FaultKind::kError, -1});
  // Transient errors that a retry often clears (fault time on success).
  options.fault_scripts[1].error_rate = 0.3;
  // Latency spikes past the deadline, plus corrupted outputs.
  options.fault_scripts[2].spike_rate = 0.2;
  options.fault_scripts[2].garbage_rate = 0.1;
  const QueryOutput out = ExpectGolden(
      GoldenSql("nusc-night SCALE 0.05 SEED 20",
                "MES(yolov7-tiny@clear, yolov7-tiny@night, yolov7@clear; "
                "REF)) WHERE COUNT(*) >= 1"),
      options, 0xabfb402d2b13ec12ull);
  EXPECT_GT(out.fallback_frames, 0u);
  EXPECT_GT(out.fault_ms, 0.0);
  EXPECT_GT(out.model_failures[0], 0u);
  EXPECT_GT(out.model_failures[1], 0u);
}

// An open breaker refuses a model's call at zero cost, and its half-open
// probes decide recovery. One model with a scripted outage over frames
// [0, 6), tripping after two failures and cooling down for four frames:
//   frames 0, 1   fail and pay the error latency; the breaker opens at 1;
//   frames 2-4    are refused without a call: failed, zero cost;
//   frame 5       is the half-open probe, still in the outage: it fails,
//                 pays, and re-opens the breaker;
//   frames 6-8    are refused again (the cool-down restarts at 5);
//   frame 9       is the probe after the outage: it succeeds and closes
//                 the breaker, and every later frame runs normally.
TEST(FaultedQueryTest, BreakerShortCircuitsWhileOpenAndRecovers) {
  QueryEngineOptions options;
  options.breaker.failure_threshold = 2;
  options.breaker.open_frames = 4;
  options.fault_scripts.resize(1);
  options.fault_scripts[0].bursts.push_back({0, 6, FaultKind::kError, -1});
  Observability obs;
  options.obs = obs.handle();
  const Result<QueryOutput> out = ExecuteQuery(
      GoldenSql("nusc-night SCALE 0.01 SEED 21",
                "BF(yolov7-tiny@clear)) WHERE COUNT(*) >= 0"),
      options);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_GT(out->frames_processed, 12u);
  EXPECT_EQ(out->failed_frames, 9u);
  EXPECT_EQ(out->model_failures[0], 9u) << "three failed calls, six refusals";
  EXPECT_EQ(out->fault_ms, 3 * options.fault_scripts[0].error_latency_ms);
  EXPECT_EQ(out->frames_matched, out->frames_processed - 9);

  std::map<int64_t, double> frame_ms;
  for (const TraceEvent& e : obs.trace().Collect()) {
    if (std::string(e.name) == "query_frame") frame_ms[e.frame] = e.dur_ms;
  }
  ASSERT_EQ(frame_ms.size(), out->frames_processed);
  for (const int64_t f : {0, 1, 5}) {
    EXPECT_EQ(frame_ms[f], options.fault_scripts[0].error_latency_ms)
        << "frame " << f << " calls the model and pays the error latency";
  }
  for (const int64_t f : {2, 3, 4, 6, 7, 8}) {
    EXPECT_EQ(frame_ms[f], 0.0) << "frame " << f << " must be refused";
  }
  for (int64_t f = 9; f < static_cast<int64_t>(frame_ms.size()); ++f) {
    EXPECT_GT(frame_ms[f], options.fault_scripts[0].error_latency_ms)
        << "frame " << f << " runs after the breaker closed";
  }
}

}  // namespace
}  // namespace vqe
