// Failpoint: deterministic fault injection for chaos and robustness tests.
//
// A failpoint is a string-named site compiled into production code paths
// ("storage.load.relation", "text.lookup.fast_path", ...). Disarmed — the
// only state the production binary ever sees unless a test or the
// MWEAVER_FAILPOINTS environment variable arms one — a site costs a single
// relaxed atomic load behind a function-local static, so instrumenting hot
// paths is safe. Armed, the site consults its policy (seeded per-site RNG,
// fire probability, skip/limit counters) and reports which action fired:
//
//   kError   inject a Status failure (code + message configurable); the
//            default code is kUnavailable, the class the service layer
//            treats as transient and retries once.
//   kDelay   sleep for the configured duration (latency spike).
//   kTrigger generic "misbehave now" boolean, interpreted by the site:
//            forced cache evict/overflow, forced scan fallback, forced
//            queue overload, spurious deadline expiry.
//   kCancel  the site trips its ExecutionContext's stop latch (spurious
//            cooperative cancellation).
//
// Policies are seedable and bounded (skip_first / max_fires), which is what
// makes chaos schedules replayable: the same seed always yields the same
// fire decisions in the same hit order.
//
// Thread-safety: every member of Failpoint and FailpointRegistry is safe to
// call concurrently; the disarmed fast path never takes a lock.
#ifndef MWEAVER_COMMON_FAILPOINT_H_
#define MWEAVER_COMMON_FAILPOINT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace mweaver {

/// \brief What an armed failpoint does when it fires.
enum class FailAction : uint8_t {
  kNone = 0,  // not armed, dice miss, or outside the skip/limit window
  kError,     // inject a Status failure
  kDelay,     // sleep (performed inside Fire() before it returns)
  kTrigger,   // site-interpreted misbehaviour (evict, fallback, overload...)
  kCancel,    // site trips its request's cooperative-cancel latch
};

/// \brief The armed behaviour of one site.
struct FailpointPolicy {
  FailAction action = FailAction::kTrigger;
  /// Chance each hit fires once past `skip_first` and under `max_fires`.
  double probability = 1.0;
  /// Hits ignored before the site starts rolling the dice.
  uint32_t skip_first = 0;
  /// Total fires allowed (0 = unlimited).
  uint32_t max_fires = 0;
  /// Sleep duration for kDelay.
  std::chrono::microseconds delay{0};
  /// Status code injected by kError.
  StatusCode error_code = StatusCode::kUnavailable;
  /// Extra text appended to the injected error message.
  std::string message;
  /// Seed of the per-site dice RNG (re-seeded on every Arm()).
  uint64_t seed = 0;
};

/// \brief One named injection site. Instances are owned by the registry and
/// live for the process lifetime, so site macros can cache references.
class Failpoint {
 public:
  explicit Failpoint(std::string name) : name_(std::move(name)) {}

  Failpoint(const Failpoint&) = delete;
  Failpoint& operator=(const Failpoint&) = delete;

  const std::string& name() const { return name_; }

  /// \brief The disarmed fast-path check: a single relaxed load.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// \brief Installs `policy` and re-seeds the dice RNG.
  void Arm(FailpointPolicy policy);
  void Disarm();

  /// \brief Evaluates the policy for one hit. Returns the action that
  /// fired (kNone otherwise). kDelay performs its sleep before returning,
  /// so callers needing only latency injection can ignore the result.
  FailAction Fire();

  /// \brief Fire() with kError converted into the injected Status; every
  /// other action (kDelay already slept) maps to OK.
  Status FireStatus();

  /// Counters for the CURRENT arming window (Arm() zeroes them), so tests
  /// can assert exact fire counts without cross-test bleed.
  struct Stats {
    uint64_t hits = 0;   // Fire() calls while armed
    uint64_t fires = 0;  // hits that actually fired an action
  };
  Stats stats() const;

 private:
  const std::string name_;
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> fires_{0};

  mutable std::mutex mu_;  // guards policy_, rng_ and the window counters
  FailpointPolicy policy_;
  std::mt19937_64 rng_{0};
  uint64_t armed_hits_ = 0;   // hits since Arm(), drives skip_first
  uint32_t fired_count_ = 0;  // fires since Arm(), drives max_fires
};

/// \brief Process-wide catalog of failpoints. Sites are created lazily the
/// first time they are hit or armed; arming an unknown name simply creates
/// it (the site fires once code reaches it).
class FailpointRegistry {
 public:
  /// \brief The singleton. The first call applies MWEAVER_FAILPOINTS.
  static FailpointRegistry& Global();

  /// \brief Returns the site, creating it if needed. The reference is
  /// stable for the process lifetime.
  Failpoint& GetOrCreate(std::string_view name);

  /// \brief The site, or nullptr if it was never hit nor armed.
  Failpoint* Find(std::string_view name);

  void Arm(std::string_view name, FailpointPolicy policy);
  void Disarm(std::string_view name);
  void DisarmAll();
  std::vector<std::string> ArmedSites() const;

  /// \brief Applies a schedule spec, the MWEAVER_FAILPOINTS syntax:
  ///
  ///   spec   := site '=' action (':' param)* (';' spec)?
  ///   action := 'error' ('(' code ')')? | 'delay' '(' N ('us'|'ms') ')'
  ///           | 'trigger' | 'cancel' | 'off'
  ///   param  := 'p=' FLOAT | 'after=' N | 'limit=' N | 'seed=' N
  ///   code   := 'unavailable' | 'internal' | 'ioerror' | 'resource'
  ///
  /// e.g. "text.lookup.fast_path=trigger:p=0.3;service.search.transient=
  /// error:limit=2:seed=7". Returns InvalidArgument on malformed specs
  /// (sites parsed before the error stay armed).
  Status ConfigureFromString(std::string_view spec);

 private:
  FailpointRegistry() = default;

  mutable std::mutex mu_;  // guards sites_ (map layout only)
  std::unordered_map<std::string, std::unique_ptr<Failpoint>> sites_;
};

/// \brief RAII arming for tests: disarms the site on scope exit.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string_view name, FailpointPolicy policy)
      : site_(&FailpointRegistry::Global().GetOrCreate(name)) {
    site_->Arm(std::move(policy));
  }
  ~ScopedFailpoint() { site_->Disarm(); }

  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

  Failpoint& site() { return *site_; }

 private:
  Failpoint* site_;
};

}  // namespace mweaver

/// \brief The per-site handle: resolves the name once, then costs a static
/// guard check plus one relaxed load per pass when disarmed.
#define MW_FAILPOINT_SITE(site_name)                                     \
  ([]() -> ::mweaver::Failpoint& {                                       \
    static ::mweaver::Failpoint& fp_site =                               \
        ::mweaver::FailpointRegistry::Global().GetOrCreate(site_name);   \
    return fp_site;                                                      \
  }())

/// \brief Evaluates the site, returning the FailAction that fired (kNone
/// when disarmed). kDelay has already slept by the time this returns.
#define MW_FAILPOINT_FIRE(site_name)              \
  (MW_FAILPOINT_SITE(site_name).armed()           \
       ? MW_FAILPOINT_SITE(site_name).Fire()      \
       : ::mweaver::FailAction::kNone)

/// \brief True iff the site fired a kTrigger this hit.
#define MW_FAILPOINT_TRIGGERED(site_name) \
  (MW_FAILPOINT_FIRE(site_name) == ::mweaver::FailAction::kTrigger)

/// \brief Propagates an injected error out of the enclosing function (which
/// must return Status or Result<T>). kDelay sleeps; other actions pass.
#define MW_FAILPOINT_RETURN_NOT_OK(site_name)                     \
  do {                                                            \
    if (MW_FAILPOINT_SITE(site_name).armed()) {                   \
      ::mweaver::Status fp_status =                               \
          MW_FAILPOINT_SITE(site_name).FireStatus();              \
      if (!fp_status.ok()) return fp_status;                      \
    }                                                             \
  } while (false)

#endif  // MWEAVER_COMMON_FAILPOINT_H_
