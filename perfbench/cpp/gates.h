// Correctness gates: the conservation laws the library promises, and a shadow
// catalog that byte-checks what the archive front-end returns. Each workload
// runs its gates on its real outputs, then self-checks them on a deliberately
// corrupted copy, so a gate that cannot fail is itself a failure.
#ifndef PERFBENCH_CPP_GATES_H_
#define PERFBENCH_CPP_GATES_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "frontend/frontend.h"

namespace silica {
struct FederationResult;
struct LibrarySimResult;
}  // namespace silica

namespace perfbench {

// completed + failed == total for every twin.
bool TwinConserves(const silica::LibrarySimResult& result);
// Repair ledger detected == sum(repaired) + unrecoverable, and lazy-queue
// entries admitted == drained + settled.
bool RepairConserves(const silica::LibrarySimResult& result);
// Message conservation (sent == delivered + dropped + in flight), geo routing
// conservation (routed + unroutable == geo reads, completed + failed == routed),
// and every library's request and injected-request conservation.
bool FederationConserves(const silica::FederationResult& result,
                         std::string* why);
// submitted == accepted + rejected and admitted == completed + failed.
bool FrontEndConserves(const silica::FrontEnd::Counters& counters);

// Replays the front-end's completion stream against what the benchmark wrote.
// Completions arrive in execution order, so the catalog tracks the committed
// bytes of every name: an OK Get must return exactly the committed bytes, or
// the payload of a Put of that name that was submitted and has not completed
// yet (read-your-writes from the write stage).
class ShadowCatalog {
 public:
  enum class Verdict {
    kOk,              // the outcome matches the catalog
    kDeletedNotFound, // kNotFound for a name with no committed bytes: correct
    kMismatch,        // wrong bytes, lost data, or an impossible outcome
    kFailedStatus,    // a failure status (overload, verify, internal error)
  };

  void Seed(const std::string& name, std::vector<uint8_t> bytes);
  void Submitted(silica::RequestId id, const silica::RequestFrame& frame);
  Verdict Complete(const silica::Completion& completion);
  // What the first mismatch was, for the report ("" when there was none).
  const std::string& first_mismatch() const { return first_mismatch_; }

 private:
  Verdict Mismatch(const std::string& what, const std::string& name);
  struct Pending {
    silica::OpType op = silica::OpType::kGet;
    std::string name;
    std::vector<uint8_t> payload;
  };
  bool MatchesOutstandingPut(const std::string& name,
                             const std::vector<uint8_t>& bytes) const;

  std::unordered_map<std::string, std::vector<uint8_t>> committed_;
  std::unordered_map<silica::RequestId, Pending> pending_;
  std::unordered_map<std::string, std::vector<silica::RequestId>> puts_by_name_;
  std::string first_mismatch_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPP_GATES_H_
