#include "gates.h"

#include <algorithm>

#include "core/library_sim.h"
#include "federation/federation.h"

namespace perfbench {

bool TwinConserves(const silica::LibrarySimResult& result) {
  return result.requests_completed + result.requests_failed ==
         result.requests_total;
}

bool RepairConserves(const silica::LibrarySimResult& result) {
  const auto& s = result.scrub;
  return s.ledger.Conserves() &&
         s.lazy_admitted == s.lazy_drained + s.lazy_settled;
}

bool FederationConserves(const silica::FederationResult& result,
                         std::string* why) {
  auto fail = [why](const std::string& reason) {
    *why = reason;
    return false;
  };
  if (result.messages_sent != result.messages_delivered +
                                  result.messages_dropped +
                                  result.messages_in_flight) {
    return fail("messages sent != delivered + dropped + in flight");
  }
  if (result.geo_routed + result.geo_unroutable != result.geo_reads) {
    return fail("geo routed + unroutable != geo reads");
  }
  if (result.geo_completed + result.geo_failed != result.geo_routed) {
    return fail("geo completed + failed != geo routed");
  }
  for (size_t i = 0; i < result.libraries.size(); ++i) {
    const silica::LibrarySimResult& lib = result.libraries[i];
    const auto& fed = lib.federation;
    if (!TwinConserves(lib) ||
        fed.injected_resolved + fed.injected_failed != fed.injected_arrivals) {
      return fail("library " + std::to_string(i) + " does not conserve");
    }
  }
  return true;
}

bool FrontEndConserves(const silica::FrontEnd::Counters& counters) {
  return counters.ConservesAdmission() && counters.ConservesCompletion();
}

void ShadowCatalog::Seed(const std::string& name, std::vector<uint8_t> bytes) {
  committed_[name] = std::move(bytes);
}

void ShadowCatalog::Submitted(silica::RequestId id,
                              const silica::RequestFrame& frame) {
  Pending pending;
  pending.op = frame.op;
  pending.name = frame.name;
  if (frame.op == silica::OpType::kPut) {
    pending.payload = frame.payload;
    puts_by_name_[frame.name].push_back(id);
  }
  pending_[id] = std::move(pending);
}

bool ShadowCatalog::MatchesOutstandingPut(
    const std::string& name, const std::vector<uint8_t>& bytes) const {
  const auto it = puts_by_name_.find(name);
  if (it == puts_by_name_.end()) {
    return false;
  }
  return std::any_of(it->second.begin(), it->second.end(),
                     [&](silica::RequestId id) {
                       return pending_.at(id).payload == bytes;
                     });
}

ShadowCatalog::Verdict ShadowCatalog::Mismatch(const std::string& what,
                                               const std::string& name) {
  if (first_mismatch_.empty()) {
    first_mismatch_ = what + " '" + name + "'";
  }
  return Verdict::kMismatch;
}

ShadowCatalog::Verdict ShadowCatalog::Complete(
    const silica::Completion& completion) {
  using silica::OpType;
  using silica::StatusCode;
  const auto found = pending_.find(completion.id);
  if (found == pending_.end()) {
    return Mismatch("completion for an id never submitted",
                    std::to_string(completion.id));
  }
  Pending pending = std::move(found->second);
  pending_.erase(found);
  if (pending.op == OpType::kPut) {
    auto& ids = puts_by_name_[pending.name];
    ids.erase(std::find(ids.begin(), ids.end(), completion.id));
    if (ids.empty()) {
      puts_by_name_.erase(pending.name);
    }
  }
  if (completion.op != pending.op) {
    return Mismatch("completion op differs from the submitted op", pending.name);
  }
  const auto committed = committed_.find(pending.name);
  const bool exists = committed != committed_.end();
  switch (completion.status) {
    case StatusCode::kOk:
      break;
    case StatusCode::kNotFound:
      // Only a name with no committed bytes may be reported missing.
      return exists ? Mismatch("kNotFound for committed", pending.name)
                    : Verdict::kDeletedNotFound;
    default:
      return Verdict::kFailedStatus;
  }
  switch (pending.op) {
    case OpType::kPut:
      committed_[pending.name] = std::move(pending.payload);
      return Verdict::kOk;
    case OpType::kDelete:
      if (!exists) {
        return Mismatch("delete of a name never committed", pending.name);
      }
      committed_.erase(committed);
      return Verdict::kOk;
    case OpType::kGet:
      if (!completion.data) {
        return Mismatch("OK Get without data", pending.name);
      }
      if ((exists && *completion.data == committed->second) ||
          MatchesOutstandingPut(pending.name, *completion.data)) {
        return Verdict::kOk;
      }
      return Mismatch("Get bytes differ from the last write of", pending.name);
  }
  return Mismatch("unknown op", pending.name);
}

}  // namespace perfbench
