// The paper's §4 CredCard on the disk store, in two workloads:
//
//  * credcard-durable: ~30k cards (pages well beyond the 256-page
//    buffer pool), uniform keys, 4 clients. Mostly Buy/PayBill
//    invocations that post events to DenyCredit (perpetual, tabort on
//    over-limit) and AutoRaiseLimit (once-only relative), plus card
//    issues that activate both triggers and a small share of read-only
//    statements. Durable group commit, pool misses and the trigger
//    abort path are all on the blocking path.
//  * statement-read: the same store, 4 clients, Zipf-skewed keys whose
//    hot set fits the pool; 90% read-only statements that Load 8 cards.
//
// Outcome checks: every card keeps curr_bal <= cred_lim, no black mark
// survives (DenyCredit's tabort rolls it back), cred_lim - 1000 is a
// multiple of 500, each balance equals the client-side ledger of
// committed ops, and after Close and reopen the same values read back
// and VerifyIntegrity() is clean.

#include <cstdio>
#include <filesystem>

#include "bench_util.h"
#include "odepp/params.h"
#include "workload.h"

namespace perfbench {
namespace {

using ode::PRef;
using ode::Result;
using ode::Status;

struct CredCard {
  float cred_lim = 0;
  float curr_bal = 0;
  int32_t black_marks = 0;
  bool good_hist = true;

  void Buy(float amount) { curr_bal += amount; }
  void PayBill(float amount) { curr_bal -= amount; }
  void RaiseLimit(float amount) { cred_lim += amount; }
  bool MoreCred() const { return curr_bal > 0.8f * cred_lim && good_hist; }

  void Encode(ode::Encoder& enc) const {
    enc.PutFloat(cred_lim);
    enc.PutFloat(curr_bal);
    enc.PutI32(black_marks);
    enc.PutBool(good_hist);
  }
  static Result<CredCard> Decode(ode::Decoder& dec) {
    CredCard c;
    ODE_RETURN_NOT_OK(dec.GetFloat(&c.cred_lim));
    ODE_RETURN_NOT_OK(dec.GetFloat(&c.curr_bal));
    ODE_RETURN_NOT_OK(dec.GetI32(&c.black_marks));
    ODE_RETURN_NOT_OK(dec.GetBool(&c.good_hist));
    return c;
  }
};

constexpr uint64_t kCardBytes = 13;  // CredCard::Encode
constexpr float kInitialLimit = 1000;
constexpr float kRaise = 500;

std::unique_ptr<ode::Schema> MakeSchema() {
  auto schema = std::make_unique<ode::Schema>();
  schema->DeclareClass<CredCard>("CredCard")
      .Event("after Buy")
      .Event("after PayBill")
      .Event("BigBuy")
      .Method("Buy", &CredCard::Buy)
      .Method("PayBill", &CredCard::PayBill)
      .Mask("(currBal>credLim)",
            [](const CredCard& c, ode::MaskEvalContext&) -> Result<bool> {
              return c.curr_bal > c.cred_lim;
            })
      .Mask("MoreCred()",
            [](const CredCard& c, ode::MaskEvalContext&) -> Result<bool> {
              return c.MoreCred();
            })
      .Trigger(
          "DenyCredit", "after Buy & (currBal>credLim)",
          [](CredCard& c, ode::TriggerFireContext& ctx) -> Status {
            ++c.black_marks;
            ctx.Tabort("over limit");
            return Status::OK();
          },
          ode::CouplingMode::kImmediate, /*perpetual=*/true)
      .Trigger(
          "AutoRaiseLimit",
          "relative((after Buy & MoreCred()), after PayBill)",
          [](CredCard& c, ode::TriggerFireContext& ctx) -> Status {
            auto params = ode::UnpackParams<float>(ctx.params());
            if (!params.ok()) return params.status();
            c.RaiseLimit(std::get<0>(*params));
            return Status::OK();
          },
          ode::CouplingMode::kImmediate, /*perpetual=*/false);
  return schema;
}

enum Label : uint8_t { kBuy, kPay, kStatement, kIssue };

struct CardOp {
  Label kind;
  int32_t amount;    // Buy/PayBill
  uint32_t key_off;  // first of the op's keys in the client's key pool
};

struct Mix {
  int cards;
  int clients;
  double zipf_theta;  // 0 = uniform keys
  // Per-mille shares; Buy and PayBill split the rest evenly.
  int statement_permille;
  int issue_permille;
};

constexpr int kStatementCards = 8;
constexpr size_t kStreamOps = 1 << 17;  // per client; replayed if exhausted

class CredCardWorkload final : public Workload {
 public:
  explicit CredCardWorkload(Mix mix) : mix_(mix) {}

  int clients() const override { return mix_.clients; }
  bool on_disk() const override { return true; }
  std::vector<std::string> op_labels() const override {
    return {"buy", "pay", "statement", "issue"};
  }

  void Generate(uint64_t seed) override {
    Rng rng(seed);
    initial_balance_.resize(mix_.cards);
    for (float& b : initial_balance_) {
      // Whole dollars keep float sums exact, so the ledger can be
      // compared for equality.
      b = static_cast<float>(rng.Range(0, 950));
    }
    // Zipf rank r is card r. Cards were populated in index order, so the
    // hot ranks share the first pages and most hot reads hit the pool.
    std::unique_ptr<Zipf> zipf;
    if (mix_.zipf_theta > 0) {
      zipf = std::make_unique<Zipf>(mix_.cards, mix_.zipf_theta);
    }
    auto key = [&](Rng& r) -> uint32_t {
      if (zipf) return static_cast<uint32_t>(zipf->Sample(r));
      return static_cast<uint32_t>(r.Uniform(mix_.cards));
    };
    streams_.assign(mix_.clients, {});
    for (int c = 0; c < mix_.clients; ++c) {
      Rng r(seed * 1000003 + c + 1);
      Stream& s = streams_[c];
      s.ops.reserve(kStreamOps);
      for (size_t i = 0; i < kStreamOps; ++i) {
        CardOp op{};
        const int64_t roll = r.Range(0, 999);
        op.key_off = static_cast<uint32_t>(s.keys.size());
        if (roll < mix_.statement_permille) {
          op.kind = kStatement;
          // Distinct cards, sorted: a statement locks in key order.
          std::vector<uint32_t> cards;
          while (cards.size() < kStatementCards) {
            const uint32_t k = key(r);
            if (std::find(cards.begin(), cards.end(), k) == cards.end()) {
              cards.push_back(k);
            }
          }
          std::sort(cards.begin(), cards.end());
          s.keys.insert(s.keys.end(), cards.begin(), cards.end());
        } else if (roll < mix_.statement_permille + mix_.issue_permille) {
          op.kind = kIssue;
        } else {
          op.kind = (r.Next() & 1) != 0 ? kBuy : kPay;
          // Buy and PayBill draw from one distribution, so balances
          // random-walk around where they started.
          op.amount = static_cast<int32_t>(r.Range(20, 200));
          s.keys.push_back(key(r));
        }
        s.ops.push_back(op);
      }
    }
  }

  Status Setup(const std::string& dir, Instruments* inst,
               SetupTiming* timing) override {
    uint64_t t0 = NowNs();
    schema_ = MakeSchema();
    ODE_RETURN_NOT_OK(schema_->Freeze());
    uint64_t t1 = NowNs();
    config_.disk = true;
    config_.path = dir + "/credcard.db";
    config_.options.auto_cluster = false;
    // One bucket per ~8 cards: the default 64 buckets would make every
    // index lookup decode a ~10 KiB bucket at this population.
    config_.options.trigger_index_buckets = 4096;
    ODE_ASSIGN_OR_RETURN(session_, OpenSession(schema_.get(), config_, inst));
    uint64_t t2 = NowNs();
    cards_.assign(mix_.cards, PRef<CredCard>());
    constexpr int kPerTxn = 500;
    for (int base = 0; base < mix_.cards; base += kPerTxn) {
      ODE_RETURN_NOT_OK(session_->WithTransaction(
          [&](ode::Transaction* txn) -> Status {
            for (int i = base; i < std::min(mix_.cards, base + kPerTxn); ++i) {
              CredCard c;
              c.cred_lim = kInitialLimit;
              c.curr_bal = initial_balance_[i];
              ODE_ASSIGN_OR_RETURN(cards_[i], session_->New(txn, c));
              ODE_RETURN_NOT_OK(Arm(txn, cards_[i]));
            }
            return Status::OK();
          }));
    }
    const uint64_t t3 = NowNs();
    timing->freeze_s = (t1 - t0) / 1e9;
    timing->open_s = (t2 - t1) / 1e9;
    timing->populate_s = (t3 - t2) / 1e9;
    ledger_.assign(mix_.clients, std::vector<int64_t>(mix_.cards, 0));
    issued_.assign(mix_.clients, {});
    cursor_.assign(mix_.clients, 0);
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
    Stream& s = streams_[c];
    const CardOp& op = s.ops[cursor_[c]++ % s.ops.size()];
    const uint32_t* keys = s.keys.data() + op.key_off;
    ode::Session& session = *session_;
    result->label = op.kind;
    switch (op.kind) {
      case kBuy:
      case kPay: {
        const PRef<CredCard> card = cards_[keys[0]];
        const float amount = static_cast<float>(op.amount);
        auto method = op.kind == kBuy ? &CredCard::Buy : &CredCard::PayBill;
        ODE_RETURN_NOT_OK(RunUserTxn(session, result, [&](ode::Transaction* t) {
          return TracedInvoke(session, t, card, method, amount);
        }));
        if (!result->tabort) {
          ledger_[c][keys[0]] += op.kind == kBuy ? op.amount : -op.amount;
          result->user_bytes_written = kCardBytes;
        }
        return Status::OK();
      }
      case kStatement: {
        result->read_only = true;
        return RunUserTxn(session, result, [&](ode::Transaction* t) -> Status {
          for (int i = 0; i < kStatementCards; ++i) {
            ODE_ASSIGN_OR_RETURN(CredCard card,
                                 TracedLoad(session, t, cards_[keys[i]]));
            // Committed state must satisfy the card invariant.
            if (card.curr_bal > card.cred_lim || card.black_marks != 0) {
              return Status::Corruption("statement read a card over limit");
            }
          }
          return Status::OK();
        });
      }
      case kIssue: {
        PRef<CredCard> card;
        ODE_RETURN_NOT_OK(RunUserTxn(session, result, [&](ode::Transaction* t) {
          CredCard fresh;
          fresh.cred_lim = kInitialLimit;
          Result<PRef<CredCard>> made = [&] {
            ScopedSpan span(SpanName::kNew);
            return session.New(t, fresh);
          }();
          ODE_RETURN_NOT_OK(made.status());
          card = made.value();
          return Arm(t, card);
        }));
        issued_[c].push_back(card);
        result->user_bytes_written = kCardBytes;
        return Status::OK();
      }
    }
    return Status::Internal("unknown op");
  }

  Status Verify() override {
    // Expected balances from the ledgers of committed ops.
    std::vector<float> expected(initial_balance_);
    for (const auto& ledger : ledger_) {
      for (int i = 0; i < mix_.cards; ++i) {
        expected[i] += static_cast<float>(ledger[i]);
      }
    }
    std::vector<PRef<CredCard>> all(cards_);
    for (const auto& issued : issued_) {
      all.insert(all.end(), issued.begin(), issued.end());
    }
    std::vector<CredCard> before;
    ODE_RETURN_NOT_OK(ReadAll(all, &before));
    for (size_t i = 0; i < all.size(); ++i) {
      const CredCard& card = before[i];
      const float want = i < cards_.size() ? expected[i] : 0.0f;
      const float raised = card.cred_lim - kInitialLimit;
      std::string what;
      if (card.curr_bal != want) what = "balance differs from the ledger";
      if (card.curr_bal > card.cred_lim) what = "balance over the limit";
      if (card.black_marks != 0) what = "black mark survived a tabort";
      if (raised < 0 || raised != kRaise * static_cast<int>(raised / kRaise)) {
        what = "limit not 1000 plus a multiple of 500";
      }
      if (!what.empty()) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "card %zu: %s (bal %.0f, want %.0f, lim %.0f, marks %d)",
                      i, what.c_str(), card.curr_bal, want, card.cred_lim,
                      card.black_marks);
        return Status::Corruption(buf);
      }
    }
    // Close, reopen without decorators, read back, scrub.
    ODE_RETURN_NOT_OK(Teardown());
    schema_ = MakeSchema();
    ODE_RETURN_NOT_OK(schema_->Freeze());
    ODE_ASSIGN_OR_RETURN(session_,
                         OpenSession(schema_.get(), config_, nullptr));
    std::vector<CredCard> after;
    ODE_RETURN_NOT_OK(ReadAll(all, &after));
    for (size_t i = 0; i < all.size(); ++i) {
      if (after[i].curr_bal != before[i].curr_bal ||
          after[i].cred_lim != before[i].cred_lim ||
          after[i].black_marks != before[i].black_marks) {
        return Status::Corruption("card " + std::to_string(i) +
                                  " changed across close and reopen");
      }
    }
    ODE_ASSIGN_OR_RETURN(ode::ScrubReport scrub, session_->VerifyIntegrity());
    if (!scrub.clean()) {
      return Status::Corruption("VerifyIntegrity found " +
                                std::to_string(scrub.bad_pages) +
                                " bad pages after reopen");
    }
    live_bytes_ = all.size() * kCardBytes;
    ODE_RETURN_NOT_OK(Teardown());
    stored_bytes_ = DiskFootprint(config_.path);
    return Status::OK();
  }

  uint64_t live_user_bytes() const override { return live_bytes_; }
  uint64_t stored_bytes() const override { return stored_bytes_; }

 private:
  struct Stream {
    std::vector<CardOp> ops;
    std::vector<uint32_t> keys;
  };

  Status Arm(ode::Transaction* txn, PRef<CredCard> card) {
    ScopedSpan span(SpanName::kActivate);
    ODE_RETURN_NOT_OK(session_->Activate(txn, card, "DenyCredit").status());
    return session_->Activate(txn, card, "AutoRaiseLimit",
                              ode::PackParams(kRaise))
        .status();
  }

  Status ReadAll(const std::vector<PRef<CredCard>>& refs,
                 std::vector<CredCard>* out) {
    out->resize(refs.size());
    constexpr size_t kPerTxn = 1000;
    for (size_t base = 0; base < refs.size(); base += kPerTxn) {
      ODE_RETURN_NOT_OK(session_->WithTransaction(
          [&](ode::Transaction* txn) -> Status {
            for (size_t i = base; i < std::min(refs.size(), base + kPerTxn);
                 ++i) {
              ODE_ASSIGN_OR_RETURN((*out)[i], session_->Load(txn, refs[i]));
            }
            return Status::OK();
          }));
    }
    return Status::OK();
  }

  Mix mix_;
  std::vector<float> initial_balance_;
  std::vector<Stream> streams_;
  std::unique_ptr<ode::Schema> schema_;
  StoreConfig config_;
  std::unique_ptr<ode::Session> session_;
  std::vector<PRef<CredCard>> cards_;
  // Per client: committed balance deltas per card, cursor, issued cards.
  std::vector<std::vector<int64_t>> ledger_;
  std::vector<size_t> cursor_;
  std::vector<std::vector<PRef<CredCard>>> issued_;
  uint64_t live_bytes_ = 0, stored_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeCredCardDurable() {
  // 93% Buy/PayBill, 5% statements, 2% issues.
  return std::make_unique<CredCardWorkload>(Mix{30000, 4, 0.0, 50, 20});
}

std::unique_ptr<Workload> MakeStatementRead() {
  // 90% statements, 10% Buy/PayBill, no issues. Zipf(0.8): at 0.99 a
  // tenth of all draws hit card 0, and the lock convoys behind its
  // writers made write p99 vary several-fold between runs.
  return std::make_unique<CredCardWorkload>(Mix{30000, 4, 0.8, 900, 0});
}

}  // namespace perfbench
