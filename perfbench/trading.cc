// trading-mm: the paper's §3 program-trading triggers (DipBuyer,
// StopLoss(p), Momentum(p), as in examples/program_trading.cpp) on the
// main-memory store. 256 stocks, one client, 64 Tick/VolumeSpike
// invocations per transaction over a seeded mean-reverting price walk.
// No device and no contention: time goes to event posting, FSM and mask
// advance, firing, and decode/encode of the object image. Momentum is
// once-only; a small share of ops re-arm it where it has fired, so the
// trigger population stays stationary. Every 16th transaction is a
// read-only portfolio look at 8 stocks.
//
// Outcome check: the final per-stock state and the fire count equal a
// plain-C++ replay of the same op stream.

#include <cstdio>

#include "bench_util.h"
#include "odepp/params.h"
#include "workload.h"

namespace perfbench {
namespace {

using ode::PRef;
using ode::Result;
using ode::Status;

struct Stock {
  float price = 100;
  float prev_price = 100;
  int32_t drops_in_a_row = 0;
  int32_t drops_before_rise = 0;
  bool rose_last = false;
  int32_t shares = 0;
  float cash_spent = 0;
  int32_t buys = 0, sells = 0, momentum_alerts = 0;

  void Tick(float new_price) {
    prev_price = price;
    if (new_price < price) {
      ++drops_in_a_row;
      rose_last = false;
    } else if (new_price > price) {
      drops_before_rise = drops_in_a_row;
      drops_in_a_row = 0;
      rose_last = true;
    }
    price = new_price;
  }
  void VolumeSpike() {}  // event-only method
  void BuyShares(int32_t n) {
    shares += n;
    cash_spent += n * price;
    ++buys;
  }
  void Liquidate() {
    shares = 0;
    ++sells;
  }
  bool DippedThrice() const { return rose_last && drops_before_rise >= 3; }

  void Encode(ode::Encoder& enc) const {
    enc.PutFloat(price);
    enc.PutFloat(prev_price);
    enc.PutI32(drops_in_a_row);
    enc.PutI32(drops_before_rise);
    enc.PutBool(rose_last);
    enc.PutI32(shares);
    enc.PutFloat(cash_spent);
    enc.PutI32(buys);
    enc.PutI32(sells);
    enc.PutI32(momentum_alerts);
  }
  static Result<Stock> Decode(ode::Decoder& dec) {
    Stock s;
    ODE_RETURN_NOT_OK(dec.GetFloat(&s.price));
    ODE_RETURN_NOT_OK(dec.GetFloat(&s.prev_price));
    ODE_RETURN_NOT_OK(dec.GetI32(&s.drops_in_a_row));
    ODE_RETURN_NOT_OK(dec.GetI32(&s.drops_before_rise));
    ODE_RETURN_NOT_OK(dec.GetBool(&s.rose_last));
    ODE_RETURN_NOT_OK(dec.GetI32(&s.shares));
    ODE_RETURN_NOT_OK(dec.GetFloat(&s.cash_spent));
    ODE_RETURN_NOT_OK(dec.GetI32(&s.buys));
    ODE_RETURN_NOT_OK(dec.GetI32(&s.sells));
    ODE_RETURN_NOT_OK(dec.GetI32(&s.momentum_alerts));
    return s;
  }

  bool operator==(const Stock&) const = default;
};

constexpr uint64_t kStockBytes = 37;  // Stock::Encode
constexpr int kStocks = 256;
constexpr int kOpsPerTxn = 64;
constexpr int kReadEvery = 16;  // every 16th transaction is read-only
constexpr int kPortfolio = 8;
constexpr size_t kStreamTxns = 1 << 13;  // replayed if exhausted
// Prices move in quarter units around 100.00; the trigger parameters sit
// about 1.5 standard deviations of the stationary walk from the mean.
constexpr int32_t kMeanQuarters = 400;
constexpr float kStopPrice = 97.0f;
constexpr float kBreakoutLevel = 103.0f;

std::unique_ptr<ode::Schema> MakeSchema() {
  auto schema = std::make_unique<ode::Schema>();
  schema->DeclareClass<Stock>("Stock")
      .Event("after Tick")
      .Event("after VolumeSpike")
      .Method("Tick", &Stock::Tick)
      .Method("VolumeSpike", &Stock::VolumeSpike)
      .Mask("DippedThrice()",
            [](const Stock& s, ode::MaskEvalContext&) -> Result<bool> {
              return s.DippedThrice();
            })
      .Mask("UnderStop()",
            [](const Stock& s, ode::MaskEvalContext& ctx) -> Result<bool> {
              auto stop = ode::UnpackParams<float>(ctx.params());
              if (!stop.ok()) return stop.status();
              return s.shares > 0 && s.price < std::get<0>(*stop);
            })
      .Mask("Breakout()",
            [](const Stock& s, ode::MaskEvalContext& ctx) -> Result<bool> {
              auto level = ode::UnpackParams<float>(ctx.params());
              if (!level.ok()) return level.status();
              return s.price > std::get<0>(*level);
            })
      .Trigger(
          "DipBuyer", "after Tick & DippedThrice()",
          [](Stock& s, ode::TriggerFireContext&) -> Status {
            s.BuyShares(100);
            return Status::OK();
          },
          ode::CouplingMode::kImmediate, /*perpetual=*/true)
      .Trigger(
          "StopLoss", "after Tick & UnderStop()",
          [](Stock& s, ode::TriggerFireContext&) -> Status {
            s.Liquidate();
            return Status::OK();
          },
          ode::CouplingMode::kImmediate, /*perpetual=*/true)
      .Trigger(
          "Momentum",
          "relative((after Tick & Breakout()), after VolumeSpike)",
          [](Stock& s, ode::TriggerFireContext&) -> Status {
            ++s.momentum_alerts;
            return Status::OK();
          },
          ode::CouplingMode::kImmediate, /*perpetual=*/false);
  return schema;
}

enum Label : uint8_t { kTicks, kPortfolioRead };
enum class Kind : uint8_t { kTick, kSpike, kRearm };

struct TradeOp {
  Kind kind;
  uint16_t stock;
  float price;  // kTick
};

/// The plain-C++ reference: the same Stock code, with the three
/// triggers' semantics written out. Within one posting every trigger
/// sees the post-method state first (masks), then the ready ones fire in
/// activation order: DipBuyer, StopLoss, Momentum.
struct ModelStock {
  Stock s;
  bool momentum_active = true;
  bool breakout_seen = false;  // Momentum's relative(...) first half
};

class TradingWorkload final : public Workload {
 public:
  int clients() const override { return 1; }
  bool on_disk() const override { return false; }
  std::vector<std::string> op_labels() const override {
    return {"ticks", "portfolio"};
  }

  void Generate(uint64_t seed) override {
    Rng rng(seed);
    std::vector<int32_t> quarters(kStocks, kMeanQuarters);
    ops_.clear();
    portfolio_.clear();
    ops_.reserve(kStreamTxns * kOpsPerTxn);
    for (size_t t = 0; t < kStreamTxns; ++t) {
      if (t % kReadEvery == kReadEvery - 1) {
        for (int i = 0; i < kPortfolio; ++i) {
          portfolio_.push_back(static_cast<uint16_t>(rng.Uniform(kStocks)));
        }
        continue;
      }
      for (int i = 0; i < kOpsPerTxn; ++i) {
        TradeOp op{};
        op.stock = static_cast<uint16_t>(rng.Uniform(kStocks));
        const int64_t roll = rng.Range(0, 63);
        if (roll == 0) {
          op.kind = Kind::kRearm;
        } else if (roll <= 8) {
          op.kind = Kind::kSpike;
        } else {
          op.kind = Kind::kTick;
          int32_t& q = quarters[op.stock];
          q += static_cast<int32_t>(rng.Range(-4, 4)) +
               (kMeanQuarters - q) / 16;
          op.price = static_cast<float>(q) * 0.25f;
        }
        ops_.push_back(op);
      }
    }
  }

  Status Setup(const std::string& dir, Instruments* inst,
               SetupTiming* timing) override {
    (void)dir;
    const uint64_t t0 = NowNs();
    schema_ = MakeSchema();
    ODE_RETURN_NOT_OK(schema_->Freeze());
    const uint64_t t1 = NowNs();
    StoreConfig config;
    config.options.auto_cluster = false;
    ODE_ASSIGN_OR_RETURN(session_, OpenSession(schema_.get(), config, inst));
    const uint64_t t2 = NowNs();
    stocks_.assign(kStocks, PRef<Stock>());
    momentum_.assign(kStocks, ode::TriggerId());
    ODE_RETURN_NOT_OK(session_->WithTransaction(
        [&](ode::Transaction* txn) -> Status {
          for (int i = 0; i < kStocks; ++i) {
            ODE_ASSIGN_OR_RETURN(stocks_[i], session_->New(txn, Stock{}));
            ODE_RETURN_NOT_OK(
                session_->Activate(txn, stocks_[i], "DipBuyer").status());
            ODE_RETURN_NOT_OK(session_
                                  ->Activate(txn, stocks_[i], "StopLoss",
                                             ode::PackParams(kStopPrice))
                                  .status());
            ODE_ASSIGN_OR_RETURN(momentum_[i], ArmMomentum(txn, stocks_[i]));
          }
          return Status::OK();
        }));
    const uint64_t t3 = NowNs();
    timing->freeze_s = (t1 - t0) / 1e9;
    timing->open_s = (t2 - t1) / 1e9;
    timing->populate_s = (t3 - t2) / 1e9;
    txn_cursor_ = 0;
    write_txns_ = 0;
    fires_before_ = session_->MetricsSnapshot().CounterValue(
        "ode_trigger_fires_total");
    return Status::OK();
  }

  Status Teardown() override {
    Status st = session_ != nullptr ? session_->Close() : Status::OK();
    session_.reset();
    schema_.reset();
    return st;
  }

  ode::Session* session() override { return session_.get(); }

  Status RunOp(int c, OpResult* result) override {
    (void)c;
    ode::Session& session = *session_;
    const size_t t = txn_cursor_++ % kStreamTxns;
    if (t % kReadEvery == kReadEvery - 1) {
      result->label = kPortfolioRead;
      result->read_only = true;
      const uint16_t* picks = portfolio_.data() + (t / kReadEvery) * kPortfolio;
      return RunUserTxn(session, result, [&](ode::Transaction* txn) -> Status {
        for (int i = 0; i < kPortfolio; ++i) {
          ODE_RETURN_NOT_OK(
              TracedLoad(session, txn, stocks_[picks[i]]).status());
        }
        return Status::OK();
      });
    }
    result->label = kTicks;
    const size_t w = t - t / kReadEvery;  // index among write transactions
    const TradeOp* ops = ops_.data() + w * kOpsPerTxn;
    // Trigger ids activated by this transaction's re-arms, applied only
    // once it commits.
    std::vector<std::pair<uint16_t, ode::TriggerId>> rearmed;
    ODE_RETURN_NOT_OK(RunUserTxn(session, result, [&](ode::Transaction* txn) {
      rearmed.clear();
      for (int i = 0; i < kOpsPerTxn; ++i) {
        const TradeOp& op = ops[i];
        const PRef<Stock> stock = stocks_[op.stock];
        switch (op.kind) {
          case Kind::kTick:
            ODE_RETURN_NOT_OK(
                TracedInvoke(session, txn, stock, &Stock::Tick, op.price));
            break;
          case Kind::kSpike:
            ODE_RETURN_NOT_OK(
                TracedInvoke(session, txn, stock, &Stock::VolumeSpike));
            break;
          case Kind::kRearm: {
            ode::TriggerId current = momentum_[op.stock];
            for (const auto& [s, id] : rearmed) {
              if (s == op.stock) current = id;
            }
            bool active;
            {
              ScopedSpan span(SpanName::kIsActive);
              active = session.IsTriggerActive(txn, current);
            }
            if (!active) {
              ODE_ASSIGN_OR_RETURN(ode::TriggerId id, ArmMomentum(txn, stock));
              rearmed.emplace_back(op.stock, id);
            }
            break;
          }
        }
      }
      return Status::OK();
    }));
    if (result->tabort) return Status::Internal("no trading trigger aborts");
    for (const auto& [s, id] : rearmed) momentum_[s] = id;
    ++write_txns_;
    result->user_bytes_written = kOpsPerTxn * kStockBytes;
    return Status::OK();
  }

  Status Verify() override {
    // Replay every committed write transaction, in order, on the model.
    std::vector<ModelStock> model(kStocks);
    uint64_t fires = 0;
    for (uint64_t n = 0; n < write_txns_; ++n) {
      const TradeOp* ops = ops_.data() + (n % (ops_.size() / kOpsPerTxn)) *
                                             kOpsPerTxn;
      for (int i = 0; i < kOpsPerTxn; ++i) {
        ModelStock& m = model[ops[i].stock];
        switch (ops[i].kind) {
          case Kind::kTick: {
            m.s.Tick(ops[i].price);
            const bool dip = m.s.DippedThrice();
            const bool stop = m.s.shares > 0 && m.s.price < kStopPrice;
            if (m.momentum_active && m.s.price > kBreakoutLevel) {
              m.breakout_seen = true;
            }
            if (dip) m.s.BuyShares(100);
            if (stop) m.s.Liquidate();
            fires += (dip ? 1 : 0) + (stop ? 1 : 0);
            break;
          }
          case Kind::kSpike:
            if (m.momentum_active && m.breakout_seen) {
              ++m.s.momentum_alerts;
              m.momentum_active = false;
              ++fires;
            }
            break;
          case Kind::kRearm:
            if (!m.momentum_active) {
              m.momentum_active = true;
              m.breakout_seen = false;
            }
            break;
        }
      }
    }
    const uint64_t engine_fires =
        session_->MetricsSnapshot().CounterValue("ode_trigger_fires_total") -
        fires_before_;
    if (engine_fires != fires) {
      return Status::Corruption("fire count " + std::to_string(engine_fires) +
                                " != replay " + std::to_string(fires));
    }
    ODE_RETURN_NOT_OK(session_->WithTransaction(
        [&](ode::Transaction* txn) -> Status {
          for (int i = 0; i < kStocks; ++i) {
            ODE_ASSIGN_OR_RETURN(Stock s, session_->Load(txn, stocks_[i]));
            if (!(s == model[i].s)) {
              char buf[200];
              std::snprintf(
                  buf, sizeof(buf),
                  "stock %d differs from the replay: price %.2f/%.2f "
                  "shares %d/%d buys %d/%d sells %d/%d alerts %d/%d",
                  i, s.price, model[i].s.price, s.shares, model[i].s.shares,
                  s.buys, model[i].s.buys, s.sells, model[i].s.sells,
                  s.momentum_alerts, model[i].s.momentum_alerts);
              return Status::Corruption(buf);
            }
          }
          return Status::OK();
        }));
    live_bytes_ = kStocks * kStockBytes;
    stored_bytes_ = session_->db()->store()->stats().bytes;
    return Teardown();
  }

  uint64_t live_user_bytes() const override { return live_bytes_; }
  uint64_t stored_bytes() const override { return stored_bytes_; }

 private:
  Result<ode::TriggerId> ArmMomentum(ode::Transaction* txn, PRef<Stock> stock) {
    ScopedSpan span(SpanName::kActivate);
    return session_->Activate(txn, stock, "Momentum",
                              ode::PackParams(kBreakoutLevel));
  }

  std::vector<TradeOp> ops_;
  std::vector<uint16_t> portfolio_;
  std::unique_ptr<ode::Schema> schema_;
  std::unique_ptr<ode::Session> session_;
  std::vector<PRef<Stock>> stocks_;
  std::vector<ode::TriggerId> momentum_;
  size_t txn_cursor_ = 0;
  uint64_t write_txns_ = 0;
  uint64_t fires_before_ = 0;
  uint64_t live_bytes_ = 0, stored_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeTradingMm() {
  return std::make_unique<TradingWorkload>();
}

}  // namespace perfbench
