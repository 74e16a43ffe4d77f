#include "common/failpoint.h"

#include <cctype>
#include <cstdlib>
#include <thread>

#include "common/logging.h"

namespace mweaver {

void Failpoint::Arm(FailpointPolicy policy) {
  std::lock_guard<std::mutex> lock(mu_);
  policy_ = std::move(policy);
  rng_.seed(policy_.seed);
  armed_hits_ = 0;
  fired_count_ = 0;
  // Stats describe the current arming window, not the process lifetime —
  // tests assert exact fire counts and must not see earlier armings.
  hits_.store(0, std::memory_order_relaxed);
  fires_.store(0, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_relaxed);
}

void Failpoint::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.store(false, std::memory_order_relaxed);
}

FailAction Failpoint::Fire() {
  std::chrono::microseconds delay{0};
  FailAction action = FailAction::kNone;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!armed_.load(std::memory_order_relaxed)) return FailAction::kNone;
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (armed_hits_++ < policy_.skip_first) return FailAction::kNone;
    if (policy_.max_fires != 0 && fired_count_ >= policy_.max_fires) {
      return FailAction::kNone;
    }
    if (policy_.probability < 1.0 &&
        std::uniform_real_distribution<double>(0.0, 1.0)(rng_) >=
            policy_.probability) {
      return FailAction::kNone;
    }
    ++fired_count_;
    fires_.fetch_add(1, std::memory_order_relaxed);
    action = policy_.action;
    delay = policy_.delay;
  }
  // Sleep outside the lock so concurrent hits on the same site don't
  // serialize behind an injected latency spike.
  if (action == FailAction::kDelay && delay.count() > 0) {
    std::this_thread::sleep_for(delay);
  }
  return action;
}

Status Failpoint::FireStatus() {
  if (Fire() != FailAction::kError) return Status::OK();
  StatusCode code;
  std::string message;
  {
    std::lock_guard<std::mutex> lock(mu_);
    code = policy_.error_code;
    message = policy_.message;
  }
  std::string text = "injected failure at " + name_;
  if (!message.empty()) {
    text += ": ";
    text += message;
  }
  return Status(code, std::move(text));
}

Failpoint::Stats Failpoint::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.fires = fires_.load(std::memory_order_relaxed);
  return s;
}

FailpointRegistry& FailpointRegistry::Global() {
  // Leaked singleton: site macros cache references that may be used during
  // static destruction (e.g. by test fixtures torn down at exit).
  static FailpointRegistry* registry = []() {
    auto* r = new FailpointRegistry();
    if (const char* env = std::getenv("MWEAVER_FAILPOINTS")) {
      const Status status = r->ConfigureFromString(env);
      if (!status.ok()) {
        MW_LOG(Warning) << "ignoring malformed MWEAVER_FAILPOINTS: "
                        << status.ToString();
      }
    }
    return r;
  }();
  return *registry;
}

Failpoint& FailpointRegistry::GetOrCreate(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(std::string(name));
  if (it == sites_.end()) {
    it = sites_
             .emplace(std::string(name),
                      std::make_unique<Failpoint>(std::string(name)))
             .first;
  }
  return *it->second;
}

Failpoint* FailpointRegistry::Find(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(std::string(name));
  return it == sites_.end() ? nullptr : it->second.get();
}

void FailpointRegistry::Arm(std::string_view name, FailpointPolicy policy) {
  GetOrCreate(name).Arm(std::move(policy));
}

void FailpointRegistry::Disarm(std::string_view name) {
  if (Failpoint* site = Find(name)) site->Disarm();
}

void FailpointRegistry::DisarmAll() {
  std::vector<Failpoint*> armed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, site] : sites_) {
      if (site->armed()) armed.push_back(site.get());
    }
  }
  for (Failpoint* site : armed) site->Disarm();
}

std::vector<std::string> FailpointRegistry::ArmedSites() const {
  std::vector<std::string> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, site] : sites_) {
    if (site->armed()) out.push_back(name);
  }
  return out;
}

namespace {

Status ParseErrorCode(std::string_view text, StatusCode* code) {
  if (text == "unavailable") {
    *code = StatusCode::kUnavailable;
  } else if (text == "internal") {
    *code = StatusCode::kInternal;
  } else if (text == "ioerror") {
    *code = StatusCode::kIOError;
  } else if (text == "resource") {
    *code = StatusCode::kResourceExhausted;
  } else {
    return Status::InvalidArgument("unknown injected error code '" +
                                   std::string(text) + "'");
  }
  return Status::OK();
}

// "delay(250us)" / "delay(3ms)" argument -> microseconds.
Status ParseDelayArg(std::string_view arg, std::chrono::microseconds* out) {
  size_t digits = 0;
  while (digits < arg.size() &&
         std::isdigit(static_cast<unsigned char>(arg[digits]))) {
    ++digits;
  }
  if (digits == 0) {
    return Status::InvalidArgument("bad delay '" + std::string(arg) + "'");
  }
  const uint64_t value = std::strtoull(std::string(arg, 0, digits).c_str(),
                                       nullptr, 10);
  const std::string_view unit = arg.substr(digits);
  if (unit == "us") {
    *out = std::chrono::microseconds(value);
  } else if (unit == "ms") {
    *out = std::chrono::milliseconds(value);
  } else {
    return Status::InvalidArgument("bad delay unit '" + std::string(unit) +
                                   "' (want us or ms)");
  }
  return Status::OK();
}

Status ParseFloat(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad number '" + text + "'");
  }
  return Status::OK();
}

Status ParseUint(const std::string& text, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad integer '" + text + "'");
  }
  return Status::OK();
}

}  // namespace

Status FailpointRegistry::ConfigureFromString(std::string_view spec) {
  for (std::string_view rest = spec; !rest.empty();) {
    const size_t sep = rest.find(';');
    std::string_view entry = rest.substr(0, sep);
    rest = sep == std::string_view::npos ? std::string_view()
                                         : rest.substr(sep + 1);
    if (entry.empty()) continue;

    const size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument("missing '=' in failpoint spec '" +
                                     std::string(entry) + "'");
    }
    const std::string_view name = entry.substr(0, eq);
    std::string_view config = entry.substr(eq + 1);

    // First ':'-separated field is the action, the rest are params.
    FailpointPolicy policy;
    bool disarm = false;
    bool first = true;
    while (!config.empty() || first) {
      const size_t colon = config.find(':');
      std::string_view field = config.substr(0, colon);
      config = colon == std::string_view::npos ? std::string_view()
                                               : config.substr(colon + 1);
      if (first) {
        first = false;
        std::string_view action = field;
        std::string_view arg;
        const size_t paren = field.find('(');
        if (paren != std::string_view::npos) {
          if (field.back() != ')') {
            return Status::InvalidArgument("unclosed '(' in '" +
                                           std::string(field) + "'");
          }
          action = field.substr(0, paren);
          arg = field.substr(paren + 1, field.size() - paren - 2);
        }
        if (action == "error") {
          policy.action = FailAction::kError;
          if (!arg.empty()) {
            MW_RETURN_NOT_OK(ParseErrorCode(arg, &policy.error_code));
          }
        } else if (action == "delay") {
          policy.action = FailAction::kDelay;
          MW_RETURN_NOT_OK(ParseDelayArg(arg, &policy.delay));
        } else if (action == "trigger") {
          policy.action = FailAction::kTrigger;
        } else if (action == "cancel") {
          policy.action = FailAction::kCancel;
        } else if (action == "off") {
          disarm = true;
        } else {
          return Status::InvalidArgument("unknown failpoint action '" +
                                         std::string(action) + "'");
        }
        continue;
      }
      const size_t peq = field.find('=');
      if (peq == std::string_view::npos) {
        return Status::InvalidArgument("bad failpoint param '" +
                                       std::string(field) + "'");
      }
      const std::string_view key = field.substr(0, peq);
      const std::string value(field.substr(peq + 1));
      uint64_t number = 0;
      if (key == "p") {
        MW_RETURN_NOT_OK(ParseFloat(value, &policy.probability));
      } else if (key == "after") {
        MW_RETURN_NOT_OK(ParseUint(value, &number));
        policy.skip_first = static_cast<uint32_t>(number);
      } else if (key == "limit") {
        MW_RETURN_NOT_OK(ParseUint(value, &number));
        policy.max_fires = static_cast<uint32_t>(number);
      } else if (key == "seed") {
        MW_RETURN_NOT_OK(ParseUint(value, &number));
        policy.seed = number;
      } else {
        return Status::InvalidArgument("unknown failpoint param '" +
                                       std::string(key) + "'");
      }
    }
    if (disarm) {
      Disarm(name);
    } else {
      Arm(name, std::move(policy));
    }
  }
  return Status::OK();
}

}  // namespace mweaver
