// The traced pass: delivery timing around simulated replicas and clients,
// and timed calls into each module's public functions on inputs shaped like
// one workload's traffic. Spans are kept as sums in memory and turned into
// per-layer metrics when the pass ends.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>

#include "crypto/digest.h"
#include "crypto/keystore.h"
#include "perfbench/bench.h"
#include "rt/frame.h"
#include "rt/posix_medium.h"
#include "smr/command.h"
#include "smr/kv_store.h"
#include "storage/file_store.h"
#include "wire/messages.h"

namespace seemore {
namespace perfbench {
namespace {

/// Results of timed calls land here so the compiler keeps the calls.
volatile size_t g_sink = 0;

double NowNanos() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Runs `pass` (which handles `items` items) until at least `min_seconds`
/// have passed, at least once, and returns nanoseconds per item.
double TimePerItem(size_t items, double min_seconds,
                   const std::function<void()>& pass) {
  if (items == 0) return 0.0;
  const double start = NowNanos();
  double elapsed = 0.0;
  size_t passes = 0;
  do {
    pass();
    ++passes;
    elapsed = NowNanos() - start;
  } while (elapsed < min_seconds * 1e9);
  return elapsed / static_cast<double>(passes * items);
}

/// A decoded message that can be encoded again.
using Reencode = std::function<Bytes()>;

template <typename M>
bool DecodeAs(Decoder& dec, uint8_t tag, Reencode* reencode) {
  Result<M> msg = M::DecodeFrom(dec);
  if (!msg.ok()) return false;
  if (reencode != nullptr) {
    *reencode = [tag, body = *std::move(msg)] {
      return FrameMessage(tag, body);
    };
  }
  return true;
}

/// Decodes the normal-case message kinds of each protocol (requests,
/// replies, the ordering phases, checkpoints and mode changes). Returns
/// false for a kind outside that set or a malformed body.
bool DecodeMessage(ProtocolKind protocol, const Bytes& payload,
                   Reencode* reencode) {
  if (payload.empty()) return false;
  Decoder dec(payload);
  const uint8_t tag = dec.GetU8();
  if (tag == kMsgRequest) return DecodeAs<Request>(dec, tag, reencode);
  if (tag == kMsgReply) return DecodeAs<Reply>(dec, tag, reencode);
  switch (protocol) {
    case ProtocolKind::kSeeMoRe:
      switch (tag) {
        case kSmPrepare:
          return DecodeAs<SmPrepareMsg>(dec, tag, reencode);
        case kSmAcceptPlain:
          return DecodeAs<SmAcceptPlainMsg>(dec, tag, reencode);
        case kSmAcceptSigned:
          return DecodeAs<SmAcceptSignedMsg>(dec, tag, reencode);
        case kSmCommitPrimary:
          return DecodeAs<SmCommitPrimaryMsg>(dec, tag, reencode);
        case kSmCommitVote:
          return DecodeAs<SmCommitVoteMsg>(dec, tag, reencode);
        case kSmInform:
          return DecodeAs<SmInformMsg>(dec, tag, reencode);
        case kSmCheckpoint:
          return DecodeAs<CheckpointMsg>(dec, tag, reencode);
        case kSmModeChange:
          return DecodeAs<SmModeChangeMsg>(dec, tag, reencode);
        default:
          return false;
      }
    case ProtocolKind::kBft:
    case ProtocolKind::kSUpRight:
      switch (tag) {
        case kPbftPrePrepare:
          return DecodeAs<PbftPrePrepareMsg>(dec, tag, reencode);
        case kPbftPrepare:
          return DecodeAs<PbftPrepareMsg>(dec, tag, reencode);
        case kPbftCommit:
          return DecodeAs<PbftCommitMsg>(dec, tag, reencode);
        case kPbftCheckpoint:
          return DecodeAs<CheckpointMsg>(dec, tag, reencode);
        default:
          return false;
      }
    case ProtocolKind::kCft:
      switch (tag) {
        case kPaxAccept:
          return DecodeAs<PaxosAcceptMsg>(dec, tag, reencode);
        case kPaxAck:
          return DecodeAs<PaxosAckMsg>(dec, tag, reencode);
        case kPaxCommit:
          return DecodeAs<PaxosCommitMsg>(dec, tag, reencode);
        case kPaxCheckpoint:
          return DecodeAs<PaxosCheckpointMsg>(dec, tag, reencode);
        default:
          return false;
      }
  }
  return false;
}

/// What a message's sender signs: a request's or reply's signed payload,
/// or (for protocol messages) a consensus header of at most 64 bytes.
Bytes SignedPart(const Bytes& payload) {
  Decoder dec(payload);
  const uint8_t tag = payload.empty() ? 0 : dec.GetU8();
  if (tag == kMsgRequest) {
    Result<Request> request = Request::DecodeFrom(dec);
    if (request.ok()) return request->SignedPayload();
  } else if (tag == kMsgReply) {
    Result<Reply> reply = Reply::DecodeFrom(dec);
    if (reply.ok()) return reply->SignedPayload();
  }
  return Bytes(payload.begin(),
               payload.begin() + std::min<size_t>(payload.size(), 64));
}

void MeasureWireAndFrames(const LayerInputs& inputs, Outcome* out) {
  std::vector<const MessageSample*> covered;
  std::vector<Reencode> reencode;
  for (const MessageSample& sample : inputs.messages) {
    Reencode again;
    if (DecodeMessage(sample.protocol, sample.payload, &again)) {
      covered.push_back(&sample);
      reencode.push_back(std::move(again));
    }
  }
  for (size_t i = 0; i < covered.size(); ++i) {
    if (reencode[i]() != covered[i]->payload) {
      out->Fail("wire: a sampled message does not re-encode to its bytes");
      break;
    }
  }
  size_t sink = 0;
  out->Add("wire.encode_ns_per_msg",
           TimePerItem(reencode.size(), 0.05,
                       [&] {
                         for (const Reencode& encode : reencode) {
                           sink += encode().size();
                         }
                       }),
           "ns");
  out->Add("wire.decode_ns_per_msg",
           TimePerItem(covered.size(), 0.05,
                       [&] {
                         for (const MessageSample* sample : covered) {
                           sink += DecodeMessage(sample->protocol,
                                                 sample->payload, nullptr);
                         }
                       }),
           "ns");

  std::vector<Payload> bodies;
  Bytes stream;
  for (const MessageSample& sample : inputs.messages) {
    bodies.emplace_back(sample.payload);
    const Bytes frame = rt::EncodeFrame(sample.payload);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  out->Add("rt.frame_encode_ns",
           TimePerItem(bodies.size(), 0.05,
                       [&] {
                         for (const Payload& body : bodies) {
                           sink += rt::FrameBuffer::Wrap(body)->size();
                         }
                       }),
           "ns");
  bool parsed_all = true;
  out->Add("rt.frame_parse_ns",
           TimePerItem(bodies.size(), 0.05,
                       [&] {
                         rt::FrameReader reader;
                         size_t parsed = 0;
                         for (size_t at = 0; at < stream.size();
                              at += rt::kReadBlockBytes) {
                           const size_t len = std::min(
                               rt::kReadBlockBytes, stream.size() - at);
                           if (!reader.Feed(stream.data() + at, len).ok()) {
                             break;
                           }
                           Payload body;
                           while (reader.Next(&body)) ++parsed;
                         }
                         parsed_all = parsed_all && parsed == bodies.size();
                       }),
           "ns");
  if (!parsed_all) {
    out->Fail("rt: the frame stream did not parse back into its messages");
  }
  g_sink = sink;
}

void MeasureCrypto(const LayerInputs& inputs, Outcome* out) {
  const KeyStore keystore(/*master_seed=*/7);
  const Signer signer(/*id=*/0, keystore);
  std::vector<Bytes> signed_parts;
  size_t total_bytes = 0;
  for (const MessageSample& sample : inputs.messages) {
    signed_parts.push_back(SignedPart(sample.payload));
    total_bytes += sample.payload.size();
  }
  std::vector<Signature> signatures;
  for (const Bytes& part : signed_parts) {
    signatures.push_back(signer.Sign(part));
  }
  size_t sink = 0;
  out->Add("crypto.sign_ns",
           TimePerItem(signed_parts.size(), 0.05,
                       [&] {
                         for (const Bytes& part : signed_parts) {
                           sink += signer.Sign(part).data()[0];
                         }
                       }),
           "ns");
  bool verified_all = true;
  out->Add("crypto.verify_ns",
           TimePerItem(signed_parts.size(), 0.05,
                       [&] {
                         for (size_t i = 0; i < signed_parts.size(); ++i) {
                           verified_all =
                               keystore.Verify(0, signed_parts[i],
                                               signatures[i]) &&
                               verified_all;
                         }
                       }),
           "ns");
  if (!verified_all) {
    out->Fail("crypto: a signature over sampled traffic failed to verify");
  }
  const double ns_per_message =
      TimePerItem(inputs.messages.size(), 0.05, [&] {
        for (const MessageSample& sample : inputs.messages) {
          sink += Digest::Of(sample.payload).data()[0];
        }
      });
  const double kib_per_message =
      inputs.messages.empty()
          ? 0.0
          : static_cast<double>(total_bytes) / 1024.0 /
                static_cast<double>(inputs.messages.size());
  out->Add("crypto.digest_ns_per_kib",
           kib_per_message > 0 ? ns_per_message / kib_per_message : 0.0,
           "ns");
  g_sink = sink;
}

void MeasureKv(const LayerInputs& inputs, Outcome* out) {
  KvStateMachine machine;
  size_t sink = 0;
  out->Add("smr.kv_apply_ns",
           TimePerItem(inputs.ops.size(), 0.05,
                       [&] {
                         for (const Bytes& op : inputs.ops) {
                           sink += machine.Execute(op).size();
                         }
                       }),
           "ns");
  if (machine.ops_applied() == 0 && !inputs.ops.empty()) {
    out->Fail("smr: the state machine applied no operation");
  }
  g_sink = sink;
}

/// Per-append wall times, in microseconds, of `count` commit records of
/// `batch` through a fresh FileDurableStore on local disk.
Result<std::vector<double>> AppendTimes(const std::string& dir,
                                       int fsync_interval, int count,
                                       const Batch& batch) {
  std::vector<double> times;
  {
    rt::PosixMedium medium(dir);
    SEEMORE_RETURN_IF_ERROR(medium.status());
    DurabilityOptions options;
    options.enabled = true;
    options.fsync_interval = fsync_interval;
    storage::FileDurableStore store(&medium, options, CostModel{});
    SEEMORE_RETURN_IF_ERROR(store.OpenFresh());
    for (int i = 0; i < count; ++i) {
      const double start = NowNanos();
      store.AppendCommit(static_cast<uint64_t>(i) + 1, batch);
      times.push_back((NowNanos() - start) / 1e3);
    }
    if (store.wal().sync_count() == 0 && fsync_interval == 1) {
      return Status::Internal("storage: synced appends made no fsync");
    }
    for (const std::string& name : medium.List("")) {
      SEEMORE_RETURN_IF_ERROR(medium.Remove(name));
    }
  }
  rmdir(dir.c_str());
  return times;
}

void MeasureStorage(const LayerInputs& inputs, const std::string& dir,
                    Outcome* out) {
  Batch batch;
  for (int i = 0; i < inputs.reqs_per_batch; ++i) {
    Request request;
    request.client = kClientIdBase + i;
    request.timestamp = static_cast<uint64_t>(i) + 1;
    if (!inputs.ops.empty()) {
      request.op = inputs.ops[static_cast<size_t>(i) % inputs.ops.size()];
    }
    batch.requests.push_back(std::move(request));
  }
  // Unsynced appends give the write path alone; synced appends at the
  // workloads' default (fsync every commit record) add the fsync.
  Result<std::vector<double>> unsynced =
      AppendTimes(dir + "/storage-append", 1 << 30, 512, batch);
  Result<std::vector<double>> synced =
      AppendTimes(dir + "/storage-fsync", 1, 48, batch);
  if (!unsynced.ok() || !synced.ok()) {
    out->Fail(unsynced.ok() ? synced.status().ToString()
                            : unsynced.status().ToString());
    out->Add("storage.append_us", 0.0, "us");
    out->Add("storage.fsync_ms", 0.0, "ms");
    return;
  }
  const double append_us = Median(*unsynced);
  out->Add("storage.append_us", append_us, "us");
  out->Add("storage.fsync_ms", (Median(*synced) - append_us) / 1e3, "ms");
}

}  // namespace

class DeliveryTracer::Wrapper final : public MessageHandler {
 public:
  Wrapper(DeliveryTracer* tracer, MessageHandler* inner, ProtocolKind protocol,
          bool client)
      : tracer_(tracer), inner_(inner), protocol_(protocol), client_(client) {}

  void OnMessage(PrincipalId from, Payload payload) override {
    DeliveryTracer& t = *tracer_;
    if (t.delivered_++ % t.stride_ == 0 && t.run_samples_ < t.cap_) {
      t.samples_.push_back({protocol_, payload.ToBytes()});
      ++t.run_samples_;
    }
    const double start = NowNanos();
    inner_->OnMessage(from, std::move(payload));
    const double spent = NowNanos() - start;
    if (client_) {
      t.client_ns_ += spent;
    } else {
      t.replica_ns_ += spent;
      ++t.replica_messages_;
    }
  }

 private:
  DeliveryTracer* tracer_;
  MessageHandler* inner_;
  ProtocolKind protocol_;
  bool client_;
};

DeliveryTracer::DeliveryTracer(size_t stride, size_t cap)
    : stride_(stride), cap_(cap) {}

DeliveryTracer::~DeliveryTracer() = default;

void DeliveryTracer::Wrap(Cluster& cluster, PrincipalId id,
                          MessageHandler* inner, bool client) {
  SimNetwork& net = cluster.net();
  const Zone zone = net.ZoneOf(id);
  NodeCpu* cpu = client ? nullptr
                        : dynamic_cast<NodeCpu*>(
                              cluster.replica(static_cast<int>(id))->cpu());
  wrappers_.push_back(
      std::make_unique<Wrapper>(this, inner, cluster.config().kind, client));
  // Re-registering keeps the node's CPU queue (empty at this point); the
  // network resolves the handler at delivery time.
  net.Unregister(id);
  net.AddNode(id, zone, wrappers_.back().get(), cpu);
}

void DeliveryTracer::Attach(Cluster& cluster) {
  run_samples_ = 0;
  for (int i = 0; i < cluster.n(); ++i) {
    Wrap(cluster, i, cluster.replica(i), /*client=*/false);
  }
  cluster.sim().ScheduleAfter(0, [this, &cluster] {
    for (int i = 0; i < cluster.num_clients(); ++i) {
      SimClient* client = cluster.client(i);
      Wrap(cluster, client->id(), client, /*client=*/true);
    }
  });
}

void MeasureModules(const LayerInputs& inputs, const std::string& dir,
                    Outcome* out) {
  MeasureWireAndFrames(inputs, out);
  MeasureCrypto(inputs, out);
  MeasureKv(inputs, out);
  MeasureStorage(inputs, dir, out);
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> kNames = {
      "rt.frames_per_req",
      "rt.bytes_per_req",
      "rt.writev_per_req",
      "rt.reads_per_req",
      "rt.frames_per_writev",
      "rt.node_sys_us_per_req",
      "rt.node_user_us_per_req",
      "rt.ctx_switches_per_req",
      "rt.frame_encode_ns",
      "rt.frame_parse_ns",
      "wire.encode_ns_per_msg",
      "wire.decode_ns_per_msg",
      "crypto.sign_ns",
      "crypto.verify_ns",
      "crypto.digest_ns_per_kib",
      "crypto.memo_hit_frac",
      "consensus.reqs_per_batch",
      "consensus.msgs_handled_per_req",
      "consensus.view_changes",
      "consensus.handler_ns_per_msg",
      "storage.append_us",
      "storage.fsync_ms",
      "storage.syncs_per_req",
      "smr.kv_apply_ns",
      "smr.client_cpu_us_per_req",
      "smr.retransmits_per_kreq",
      "smr.latency_p99_ms",
      "sim.ns_per_event",
      "sim.events_per_req",
      "net.msgs_per_req",
      "net.wire_bytes_per_req",
      "trace.overhead_frac",
  };
  return kNames;
}

}  // namespace perfbench
}  // namespace seemore
