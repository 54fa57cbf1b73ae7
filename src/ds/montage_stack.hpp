// Nonblocking Montage stack (paper §3.2/§3.3): a Treiber stack whose
// linearizing CAS is a cas_verify, so every successful push/pop linearizes
// in the epoch whose label its payloads carry. When the epoch ticks
// mid-operation the DCSS throws EpochVerifyException and the operation rolls
// back and restarts in the new epoch — lock-free, as the paper argues.
//
// Transient index nodes are reclaimed through hazard pointers; payloads go
// through the normal epoch-deferred PDELETE path.
#pragma once

#include <atomic>
#include <memory>
#include <optional>

#include "montage/dcss.hpp"
#include "montage/recoverable.hpp"
#include "util/hazard.hpp"

namespace montage::ds {

template <typename V>
class MontageStack : public Recoverable {
 public:
  static constexpr uint32_t kPayloadTag = 0x4d53;  // 'MS'

  class Payload : public PBlk {
   public:
    Payload() = default;
    Payload(const V& v, uint64_t s) {
      m_val = v;
      m_sn = s;
    }
    GENERATE_FIELD(V, val, Payload);
    GENERATE_FIELD(uint64_t, sn, Payload);
  };

  explicit MontageStack(EpochSys* esys) : Recoverable(esys) {}

  ~MontageStack() override {
    Node* n = head_.load();
    while (n != nullptr) {
      Node* next = n->next;
      delete n;
      n = next;
    }
  }

  void push(const V& val) {
    // Owned until the CAS links it in, so an exception escaping the op
    // (e.g. an injected crash) cannot leak the transient node.
    auto node = std::make_unique<Node>();
    auto& hd = util::HazardDomain::global();
    while (true) {
      try {
        esys_->begin_op();
        // Reading h->sn needs a hazard: a concurrent pop may retire h.
        Node* h = static_cast<Node*>(hd.protect(0, head_.load()));
        if (h != head_.load()) {  // re-validate under the hazard
          esys_->end_op();
          continue;
        }
        // The serial number orders the abstract stack bottom-to-top; it is
        // derived from the head we CAS against, so a successful cas_verify
        // makes it consistent.
        const uint64_t sn = h == nullptr ? 1 : h->sn + 1;
        Payload* p = esys_->pnew<Payload>(val, sn);
        p->set_blk_tag(kPayloadTag);
        node->payload = p;
        node->sn = sn;
        node->next = h;
        const bool linked = head_.cas_verify(esys_, h, node.get());
        hd.clear(0);
        if (linked) {
          node.release();
          esys_->end_op();
          return;
        }
        // Value raced: discard this epoch's payload and retry.
        esys_->pdelete(p);
        esys_->end_op();
      } catch (const EpochVerifyException&) {
        // Epoch ticked under the CAS — or the op was adopted while we
        // stalled. abort_op rolls the payload back; restart in a new epoch.
        esys_->abort_op();
      } catch (...) {
        // PersistError, bad_alloc, an injected crash: the operation cannot
        // commit. Roll back so the structure (and this thread's epoch slot)
        // stays consistent, then surface the fault.
        esys_->abort_op();
        hd.clear(0);
        throw;
      }
    }
  }

  std::optional<V> pop() {
    auto& hd = util::HazardDomain::global();
    while (true) {
      try {
        esys_->begin_op();
        Node* h = static_cast<Node*>(hd.protect(0, head_.load()));
        if (h != head_.load()) {  // re-validate under the hazard
          esys_->end_op();
          continue;
        }
        if (h == nullptr) {
          esys_->end_op();
          hd.clear(0);
          return std::nullopt;
        }
        // Payload pushed in a later epoch than this operation's? get_val
        // alerts; restart in the newer epoch (paper §3.2).
        std::optional<V> ret(h->payload->get_val());
        if (head_.cas_verify(esys_, h, h->next)) {
          esys_->pdelete(h->payload);
          esys_->end_op();
          hd.clear(0);
          hd.retire(h, [](void* p) { delete static_cast<Node*>(p); });
          return ret;
        }
        esys_->end_op();
      } catch (const OldSeeNewException&) {
        esys_->abort_op();
      } catch (const EpochVerifyException&) {
        esys_->abort_op();
      } catch (...) {
        esys_->abort_op();
        hd.clear(0);
        throw;
      }
    }
  }

  bool empty() { return head_.load() == nullptr; }

  std::size_t size() {
    std::size_t n = 0;
    for (Node* c = head_.load(); c != nullptr; c = c->next) ++n;
    return n;
  }

  /// Rebuild from recovered payloads: sort ascending by sn, relink.
  void recover(const std::vector<PBlk*>& blocks) {
    std::vector<Payload*> ps;
    for (PBlk* b : blocks) {
      auto* p = static_cast<Payload*>(b);
      if (p->blk_tag() == kPayloadTag) ps.push_back(p);
    }
    std::sort(ps.begin(), ps.end(), [](Payload* a, Payload* b) {
      return a->get_unsafe_sn() < b->get_unsafe_sn();
    });
    Node* below = nullptr;
    for (Payload* p : ps) {
      auto* node = new Node();
      node->payload = p;
      node->sn = p->get_unsafe_sn();
      node->next = below;
      below = node;
    }
    head_.store(below);
  }

  /// As above, also retaining the epoch system's RecoveryReport.
  void recover(const std::vector<PBlk*>& blocks, const RecoveryReport& report) {
    recovery_report_ = report;
    recover(blocks);
  }

 private:
  struct Node {
    Payload* payload = nullptr;
    Node* next = nullptr;
    uint64_t sn = 0;
  };

  AtomicVerifiable<Node*> head_{nullptr};
};

}  // namespace montage::ds
