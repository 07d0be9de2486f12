// The `served` workload: an open loop against an in-process eblocksd
// over loopback.  One generator thread (the main thread) sends requests
// on a seeded Poisson schedule at a fixed rate and collects the replies.
// The daemon runs 2 executors plus its event-loop thread, with an
// in-memory solution cache: with the generator, 4 busy threads.  This is
// the only load through io, server and cache, and the only one where a
// queue builds.
//
// The mix: renamed copies of Table-1 designs (cache reads through the
// canonical hash; the cache is warmed with the originals during set-up),
// never-seen generated designs (misses plus inserts, so cache writes run
// beside reads), and verbatim resends of recent requests (idempotency
// replays).  Latency is timed from each request's due time, so a stall
// also charges the requests queued behind it.
//
// Every reply is byte-compared with an in-process synthesize() of the
// same request modulo the wall-clock field, its partitioning is verified,
// and every distinct output is checked behaviourally.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "cache/canonical_hash.h"
#include "cache/solution_store.h"
#include "checks.h"
#include "designs/library.h"
#include "io/binary.h"
#include "partition/verify.h"
#include "randgen/generator.h"
#include "schedule.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "stats.h"
#include "synth/synthesizer.h"

namespace perfbench {
namespace {

using namespace eblocks;

/// Offered load, requests per second: about a quarter of the saturation
/// throughput measured on the 4-core reference container at the commit
/// that defined this benchmark (see METRICS.md); at half of it, the host
/// slowing down for a few seconds saturated the daemon.  A constant, so
/// every commit is offered the same load.
constexpr double kRate = 600.0;
constexpr int kExecutors = 2;
/// Far above any queue depth the offered load builds, so a slow commit
/// shows as latency rather than as rejections.
constexpr std::size_t kQueueCapacity = 4096;
/// Fresh designs: randomNetwork with kFreshMinInner.. inner blocks, large
/// enough that two of them are almost never isomorphic (never seen by the
/// cache).  Renamed copies get per-request instance names, so each is a
/// distinct request (a cache read, not an idempotency replay).
constexpr int kFreshMinInner = 8;
constexpr int kFreshSizes = 16;
/// Fresh designs served during warm-up (never reused in the timed phase).
constexpr int kWarmupFresh = 32;
/// Distinct requests the traced run re-times in-process (cache spans,
/// server overhead, hit-over-cold).
constexpr std::size_t kTimedSample = 1500;
/// Threads and batch size of the behavioural checks after the run.
constexpr int kCheckThreads = 4;
constexpr std::size_t kSimBatch = 256;
/// The generator stops waiting after this long without a reply.
constexpr double kIdleTimeoutSeconds = 10.0;

/// One distinct request content.  Resends reuse their original's.
struct Content {
  std::string label;
  Network net;
  bool generated = false;
  std::string networkFrame;  ///< writeNetworkBinary(net)
};

/// What came back for one arrival.
struct Reply {
  double done = -1.0;  ///< steady-clock seconds; < 0 = no reply
  bool error = false;
  int innerAfter = -1;
  int originalInner = -1;
  int programmableBlocks = -1;
  std::string degradedTier;
  std::string networkFrame;
  std::string runFrame;
  std::size_t frameBytes = 0;
};

/// The generator's side of the connection: a nonblocking socket framed
/// with the protocol's header peek.  server::Client blocks in its reads,
/// and one thread must both send on schedule and collect replies as they
/// land.
class Wire {
 public:
  Wire() = default;
  ~Wire() { close(); }
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  bool connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int one = 1;
    return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) == 0 &&
           ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) ==
               0 &&
           ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK) == 0;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Writes the whole frame, spinning while the socket buffer is full.
  bool send(std::string_view frame) {
    while (!frame.empty()) {
      const ssize_t k = ::send(fd_, frame.data(), frame.size(), MSG_NOSIGNAL);
      if (k > 0) {
        frame.remove_prefix(static_cast<std::size_t>(k));
      } else if (k < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        return false;
      }
    }
    return true;
  }

  /// Appends every complete frame that has arrived; false once the
  /// connection is closed or broken.
  bool receive(std::vector<std::string>& frames) {
    char buf[65536];
    for (;;) {
      const ssize_t k = ::recv(fd_, buf, sizeof(buf), 0);
      if (k > 0) {
        inbox_.append(buf, static_cast<std::size_t>(k));
        continue;
      }
      if (k == 0) return false;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno != EINTR) return false;
    }
    std::size_t at = 0;
    while (const auto header =
               server::peekFrameHeader(std::string_view(inbox_).substr(at))) {
      const std::size_t size = server::frameSize(*header);
      if (inbox_.size() - at < size) break;
      frames.push_back(inbox_.substr(at, size));
      at += size;
    }
    inbox_.erase(0, at);
    return true;
  }

 private:
  int fd_ = -1;
  std::string inbox_;
};

server::SynthRequest makeRequest(std::uint64_t id, const std::string& frame) {
  server::SynthRequest r;
  r.id = id;
  r.algorithm = "paredown";
  r.threads = 1;
  r.useCache = true;
  r.networkFrame = frame;
  return r;
}

/// The in-process options equivalent to makeRequest() (cache off).
synth::SynthOptions coldOptions() {
  synth::SynthOptions o;
  o.algorithm = "paredown";
  o.engine.threads = 1;
  o.emitC = false;
  return o;
}

class Served : public Workload {
 public:
  /// `embedded`: a phase of another workload's traced run, which reports
  /// its own transient counts and tracing overhead.
  Served(const RunConfig& config, bool embedded)
      : config_(config), embedded_(embedded) {}
  ~Served() override {
    if (daemon_) daemon_->stop(/*cancelInFlight=*/true);
  }

  void setup() override;
  void measure(Outcome& out) override;

 private:
  std::size_t addContent(Content c, SpanRecorder* rec) {
    {
      ScopedSpan s(rec, "io.write_network");
      c.networkFrame = io::writeNetworkBinary(c.net);
    }
    contents_.push_back(std::make_unique<Content>(std::move(c)));
    return contents_.size() - 1;
  }
  void checkReplies(Outcome& out, std::vector<char>& wrong);
  void timeInProcess(Outcome& out, const std::vector<double>& sendToDone);

  RunConfig config_;
  bool embedded_;
  std::vector<designs::DesignEntry> library_;
  std::vector<Arrival> schedule_;
  std::vector<std::unique_ptr<Content>> contents_;
  std::vector<std::size_t> contentOf_;  ///< arrival -> content
  std::vector<std::size_t> warmup_;     ///< contents served in warm-up
  std::unique_ptr<server::Server> daemon_;
  std::vector<Reply> replies_;
};

void Served::setup() {
  SpanRecorder* rec = config_.trace ? trace().make("setup") : nullptr;
  library_ = designs::designLibrary();

  ScheduleSpec spec;
  spec.rate = kRate;
  spec.count = static_cast<std::uint32_t>(kRate * config_.seconds + 0.5);
  schedule_ = poissonSchedule(config_.seed, spec);

  for (std::size_t k = 0; k < library_.size(); ++k)
    warmup_.push_back(addContent(
        {library_[k].name, library_[k].network, false, {}}, rec));
  for (int k = 0; k < kWarmupFresh; ++k) {
    randgen::GeneratorOptions gen;
    gen.innerBlocks = kFreshMinInner + k % kFreshSizes;
    gen.seed = deriveSeed(config_.seed, 7, static_cast<std::uint64_t>(k));
    warmup_.push_back(addContent({"warmup/" + std::to_string(gen.seed),
                                  randgen::randomNetwork(gen), true, {}},
                                 rec));
  }

  contentOf_.resize(schedule_.size());
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    const Arrival& a = schedule_[i];
    if (a.kind == Arrival::Kind::kResend) {
      contentOf_[i] = contentOf_[a.item];
    } else if (a.kind == Arrival::Kind::kRenamed) {
      const designs::DesignEntry& base =
          library_[deriveSeed(config_.seed, 3, a.item) % library_.size()];
      const std::uint32_t seed = deriveSeed(config_.seed, 4, a.item);
      contentOf_[i] = addContent(
          {"renamed/" + base.name + "/" + std::to_string(seed),
           randgen::relabeledCopy(base.network, seed,
                                  "r" + std::to_string(a.item) + "_"),
           false, {}},
          rec);
    } else {
      randgen::GeneratorOptions gen;
      gen.innerBlocks = kFreshMinInner + static_cast<int>(a.item % kFreshSizes);
      gen.seed = deriveSeed(config_.seed, 5, a.item);
      contentOf_[i] = addContent({"fresh/" + std::to_string(gen.seed),
                                  randgen::randomNetwork(gen), true, {}},
                                 rec);
    }
  }

  server::ServerOptions options;
  options.executors = kExecutors;
  options.queueCapacity = kQueueCapacity;
  options.cacheEnabled = true;  // in-memory store
  daemon_ = std::make_unique<server::Server>(options);
  std::string error;
  if (!daemon_->start(&error))
    throw std::runtime_error("served: cannot start the daemon: " + error);

  // Warm-up: the originals of every renamed copy enter the cache, and
  // the daemon's code paths run once before timing.
  server::Client client;
  if (!client.connectTo("127.0.0.1", daemon_->port(), &error))
    throw std::runtime_error("served: cannot connect: " + error);
  std::uint64_t id = 0;
  for (const std::size_t c : warmup_) {
    const server::CallResult r =
        client.call(makeRequest(++id, contents_[c]->networkFrame), 60000);
    if (!r.ok())
      throw std::runtime_error("served: warm-up request for " +
                               contents_[c]->label + " failed");
  }
}

void Served::measure(Outcome& out) {
  Trace& tr = trace();
  SpanRecorder* genRec = config_.trace ? tr.make("generator") : nullptr;
  const std::size_t n = schedule_.size();
  replies_.assign(n, Reply{});
  std::vector<double> sent(n, 0.0), lag(n, 0.0), depth;
  std::vector<std::size_t> requestBytes(n, 0);

  Wire wire;
  if (!wire.connect(daemon_->port()))
    throw std::runtime_error("served: cannot connect the generator");
  const server::ServerStats before = daemon_->stats();
  const cache::StoreStats cacheBefore = daemon_->cache()->stats();

  // One thread sends every request at its due time and collects replies
  // as they land, spinning between the two, so neither a late wake-up
  // nor a reply waiting in the socket buffer is charged to the daemon.
  const double start = now() + 0.01;
  std::size_t next = 0, got = 0;
  double lastFrame = start;
  std::vector<std::string> frames;
  while (got < n) {
    const double t = now();
    if (next < n && t >= start + schedule_[next].due) {
      const std::size_t i = next++;
      sent[i] = t;
      lag[i] = t - (start + schedule_[i].due);
      // Every other request is traced; the untraced half measures what
      // the tracing costs under the same load.
      SpanRecorder* rec = i % 2 == 0 ? genRec : nullptr;
      std::string frame;
      {
        ScopedSpan s(rec, "server.encode", i + 1);
        frame = server::encodeRequest(
            makeRequest(i + 1, contents_[contentOf_[i]]->networkFrame));
      }
      requestBytes[i] = frame.size();
      bool ok;
      {
        ScopedSpan s(rec, "server.send", i + 1);
        ok = wire.send(frame);
      }
      if (!ok) break;
      if (rec && i % 16 == 0) {
        ScopedSpan s(rec, "server.stats", i + 1);
        depth.push_back(static_cast<double>(daemon_->stats().queuedNow));
      }
      continue;
    }
    frames.clear();
    if (!wire.receive(frames)) break;
    if (frames.empty()) {
      if (next == n && t - lastFrame > kIdleTimeoutSeconds) break;
      continue;
    }
    const double arrived = now();
    lastFrame = arrived;
    for (const std::string& frame : frames) {
      try {
        const io::SectionTag tag = server::peekFrameHeader(frame)->tag;
        if (tag == io::SectionTag::kServerResponse) {
          server::SynthResponse resp;
          {
            ScopedSpan s(genRec, "server.decode");
            resp = server::decodeResponse(frame);
          }
          if (resp.id == 0 || resp.id > n) continue;
          Reply& r = replies_[resp.id - 1];
          if (r.done >= 0) continue;  // duplicate reply: left unmatched
          r.done = arrived;
          r.innerAfter = resp.innerAfter;
          r.originalInner = resp.originalInner;
          r.programmableBlocks = resp.programmableBlocks;
          r.degradedTier = std::move(resp.degradedTier);
          r.networkFrame = std::move(resp.networkFrame);
          r.runFrame = std::move(resp.runFrame);
          r.frameBytes = frame.size();
          ++got;
        } else if (tag == io::SectionTag::kServerError) {
          const server::ErrorReply e = server::decodeError(frame);
          if (e.id == 0 || e.id > n) continue;
          Reply& r = replies_[e.id - 1];
          if (r.done >= 0) continue;
          r.done = arrived;
          r.error = true;
          ++got;
        }
      } catch (const std::exception&) {
        // An undecodable frame answers nothing; its request stays
        // unanswered and counts as failed.
      }
    }
  }
  wire.close();

  const server::ServerStats after = daemon_->stats();
  const cache::StoreStats cacheAfter = daemon_->cache()->stats();
  daemon_->stop();

  TimedPhase phase;
  phase.attempted = n;
  std::vector<char> wrong(n, 0);
  checkReplies(out, wrong);
  std::vector<double> sendToDone(n, -1.0);
  std::vector<std::size_t> answered;
  for (std::size_t i = 0; i < n; ++i) {
    const Reply& r = replies_[i];
    if (r.done < 0 || r.error || wrong[i]) {
      ++phase.failed;
      continue;
    }
    answered.push_back(i);
    sendToDone[i] = r.done - sent[i];
  }
  std::sort(answered.begin(), answered.end(),
            [&](std::size_t a, std::size_t b) {
              return replies_[a].done < replies_[b].done;
            });
  for (const std::size_t i : answered)
    phase.latencies.add(replies_[i].done - (start + schedule_[i].due),
                        replies_[i].done - start);
  phase.asMeasured = phase.latencies;  // the open loop is not scaled
  if (phase.failed > 0)
    out.problem("served: " + std::to_string(phase.failed) + " of " +
                std::to_string(n) +
                " requests got an error, no reply, or a wrong reply");
  out.attempted += phase.attempted;
  out.failed += phase.failed;

  int innerAfter = 0;  // over distinct designs (warm-up excluded)
  std::vector<char> counted(contents_.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = contentOf_[i];
    if (counted[c] || replies_[i].innerAfter < 0) continue;
    counted[c] = 1;
    innerAfter += replies_[i].innerAfter;
  }
  if (!config_.trace) {
    addEndToEnd(out, phase, innerAfter);
    return;
  }

  const auto recs = tr.all();
  const auto us = [&](const char* name) { return medianMicros(recs, name); };
  out.add("server.encode_us", us("server.encode"), "us");
  out.add("server.send_us", us("server.send"), "us");
  out.add("server.decode_us", us("server.decode"), "us");
  std::vector<double> reqBytes, respBytes;
  for (std::size_t i = 0; i < n; ++i) {
    reqBytes.push_back(static_cast<double>(requestBytes[i]));
    if (replies_[i].frameBytes)
      respBytes.push_back(static_cast<double>(replies_[i].frameBytes));
  }
  out.add("io.request_bytes", median(reqBytes), "bytes");
  out.add("io.response_bytes", median(respBytes), "bytes");

  const double meanDepth = depth.empty() ? 0.0 : sum(depth) / depth.size();
  const double span = schedule_.empty() ? 0.0 : schedule_.back().due;
  const double accepted =
      static_cast<double>(after.accepted - before.accepted);
  out.add("server.queue_depth", meanDepth, "count");
  out.add("server.queue_wait_ms",
          littleWaitMs(meanDepth, span > 0 ? accepted / span : 0.0), "ms");
  const double completed =
      static_cast<double>(after.completed - before.completed);
  out.add("server.replay_ratio",
          completed > 0 ? static_cast<double>(after.idempotentReplays -
                                              before.idempotentReplays) /
                              completed
                        : 0.0,
          "ratio");
  out.add("server.rejected",
          static_cast<double>(after.rejectedOverload -
                              before.rejectedOverload +
                              after.rejectedShutdown -
                              before.rejectedShutdown),
          "count");
  const double lookups =
      static_cast<double>(cacheAfter.hits - cacheBefore.hits +
                          cacheAfter.misses - cacheBefore.misses);
  out.add("cache.lookups", lookups, "count");
  out.add("cache.hit_ratio",
          lookups > 0 ? static_cast<double>(cacheAfter.hits -
                                            cacheBefore.hits) /
                            lookups
                      : 0.0,
          "ratio");
  out.add("loadgen.lag_p99_ms", percentile(lag, 99) * 1e3, "ms");

  std::vector<double> tracedLatency, untracedLatency;
  for (std::size_t i = 0; i < n; ++i)
    if (sendToDone[i] >= 0)
      (i % 2 == 0 ? tracedLatency : untracedLatency)
          .push_back(replies_[i].done - (start + schedule_[i].due));
  if (!embedded_)
    out.add("trace.overhead",
            median(tracedLatency) / median(untracedLatency) - 1.0, "ratio");

  timeInProcess(out, sendToDone);
}

void Served::checkReplies(Outcome& out, std::vector<char>& wrong) {
  const std::size_t n = schedule_.size();
  SpanRecorder* rec = config_.trace ? trace().make("checker") : nullptr;

  // The in-process twin of the daemon's cache: warmed with the same
  // designs, then fed the requests in arrival order.  A reply must equal
  // in-process synthesize() with the request's own options -- the twin
  // cache attached -- or, should the daemon's two executors have met two
  // isomorphic designs in the other order, the cold run.
  synth::SynthOptions cached = coldOptions();
  cached.cache = std::make_shared<cache::SolutionStore>(cache::StoreOptions{});
  const synth::SynthOptions cold = coldOptions();
  for (const std::size_t c : warmup_)
    (void)synth::synthesize(contents_[c]->net, cached);

  std::vector<std::vector<std::size_t>> arrivalsOf(contents_.size());
  for (std::size_t i = 0; i < n; ++i) arrivalsOf[contentOf_[i]].push_back(i);
  std::uint64_t hits = 0, hitsDiffering = 0;
  int reported = 0;
  // Behavioural checks of the decoded outputs, a batch at a time, spread
  // over the (now idle) cores.
  std::vector<std::pair<std::size_t, Network>> toSimulate;
  DivergenceCount divergences;
  const auto simulate = [&] {
    std::vector<BehaviourVerdict> verdicts(toSimulate.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < kCheckThreads; ++t)
      pool.emplace_back([&] {
        for (std::size_t k; (k = next.fetch_add(1)) < toSimulate.size();) {
          const std::size_t c = toSimulate[k].first;
          verdicts[k] = checkBehaviour(
              contents_[c]->net, toSimulate[k].second,
              deriveSeed(config_.seed, 91, c), contents_[c]->generated);
        }
      });
    for (std::thread& t : pool) t.join();
    for (std::size_t k = 0; k < verdicts.size(); ++k) {
      const Content& content = *contents_[toSimulate[k].first];
      divergences.count(verdicts[k], content.label);
      if (verdicts[k].kind == BehaviourVerdict::Kind::kDiverged) {
        for (const std::size_t i : arrivalsOf[toSimulate[k].first])
          wrong[i] = 1;
        if (reported++ < 5)
          out.problem(content.label + ": behaviour diverges: " +
                      verdicts[k].detail);
      }
    }
    toSimulate.clear();
  };
  for (std::size_t c = 0; c < contents_.size(); ++c) {
    if (arrivalsOf[c].empty()) continue;
    const Content& content = *contents_[c];
    // A miss runs the partitioner cold, so only a hit needs a cold twin.
    const synth::SynthResult twin = synth::synthesize(content.net, cached);
    const bool hit = twin.cacheOutcome == synth::CacheOutcome::kHit;
    synth::SynthResult ref;
    if (hit) ref = synth::synthesize(content.net, cold);
    const std::string refNets[] = {
        io::writeNetworkBinary(twin.network),
        hit ? io::writeNetworkBinary(ref.network) : std::string{}};
    const std::string refRuns[] = {
        runBytesModuloTime(twin.run),
        hit ? runBytesModuloTime(ref.run) : std::string{}};
    if (hit) {
      ++hits;
      if (refNets[0] != refNets[1] || refRuns[0] != refRuns[1]) {
        if (++hitsDiffering <= 3)
          std::fprintf(stderr, "note: %s: cache hit differs from a cold run\n",
                       content.label.c_str());
      }
    }
    bool decoded = false;
    for (const std::size_t i : arrivalsOf[c]) {
      const Reply& r = replies_[i];
      if (r.done < 0 || r.error) continue;
      std::string why;
      try {
        const std::string run =
            runBytesModuloTime(io::readPartitionRunBinary(r.runFrame));
        const int k = r.networkFrame == refNets[0] && run == refRuns[0] ? 0
                      : hit && r.networkFrame == refNets[1] &&
                              run == refRuns[1]
                          ? 1
                          : -1;
        const synth::SynthResult& match = k == 1 ? ref : twin;
        if (k < 0)
          why = "served result differs from in-process synthesize()";
        else if (r.innerAfter != match.innerAfter ||
                 r.originalInner != match.originalInner ||
                 r.programmableBlocks != match.programmableBlocks ||
                 !r.degradedTier.empty())
          why = "served counts differ from in-process synthesize()";
        if (why.empty() && !decoded) {
          const partition::PartitionProblem problem(content.net, cold.spec);
          const auto v = partition::verifyPartitioning(
              problem, io::readPartitionRunBinary(r.runFrame).result);
          if (!v.empty()) why = "verifyPartitioning: " + v[0];
          Network served;
          {
            ScopedSpan s(rec, "io.read_network");
            served = io::readNetworkBinary(r.networkFrame);
          }
          toSimulate.emplace_back(c, std::move(served));
          decoded = true;
        }
      } catch (const std::exception& e) {
        why = std::string("undecodable reply: ") + e.what();
      }
      if (!why.empty()) {
        wrong[i] = 1;
        if (reported++ < 5) out.problem(content.label + ": " + why);
      }
    }
    if (toSimulate.size() >= kSimBatch) simulate();
  }
  simulate();
  // A known defect, reported and never hidden: PareDown depends on
  // declaration order, so a translated hit on a renamed copy can differ
  // from (and cost more blocks than) a cold run on that copy.
  std::printf("cache hits differing from a cold run: %llu of %llu\n",
              static_cast<unsigned long long>(hitsDiffering),
              static_cast<unsigned long long>(hits));
  if (config_.trace)
    out.add("cache.hit_mismatch", static_cast<double>(hitsDiffering),
            "count");

  divergences.print();
  if (config_.trace && !embedded_) {
    out.add("sim.transient_latch", static_cast<double>(divergences.latch),
            "count");
    out.add("sim.transient_other", static_cast<double>(divergences.other),
            "count");
  }
}

void Served::timeInProcess(Outcome& out,
                           const std::vector<double>& sendToDone) {
  SpanRecorder* rec = trace().make("in-process");
  // A local store in the state the daemon's was: warmed with the same
  // designs, then fed the timed requests in arrival order.
  auto store = std::make_shared<cache::SolutionStore>(cache::StoreOptions{});
  synth::SynthOptions cached = coldOptions();
  cached.cache = store;
  const synth::SynthOptions cold = coldOptions();
  for (const std::size_t c : warmup_)
    (void)synth::synthesize(contents_[c]->net, cached);

  std::vector<double> inProcess(contents_.size(), -1.0);
  std::vector<double> hitTimes, coldTimes, overhead;
  std::size_t timed = 0;
  for (std::size_t i = 0; i < schedule_.size() && timed < kTimedSample; ++i) {
    const std::size_t c = contentOf_[i];
    if (inProcess[c] >= 0 || sendToDone[i] < 0) continue;
    ++timed;
    const Network& net = contents_[c]->net;
    double t0 = now();
    const synth::SynthResult ref = synth::synthesize(net, cold);
    const double coldSeconds = now() - t0;
    {
      ScopedSpan s(rec, "cache.hash", i + 1);
      (void)cache::structureHash(net);
    }
    bool hit;
    t0 = now();
    {
      ScopedSpan s(rec, "cache.lookup_miss", i + 1);
      hit = store->lookup(net, cold.algorithm, cold.spec, cold.engine)
                .has_value();
      if (hit) s.rename("cache.lookup_hit");
    }
    double seconds = coldSeconds + (now() - t0);
    if (hit) {
      t0 = now();
      (void)synth::synthesize(net, cached);
      seconds = now() - t0;
      hitTimes.push_back(seconds);
      coldTimes.push_back(coldSeconds);
    } else {
      t0 = now();
      {
        ScopedSpan s(rec, "cache.insert", i + 1);
        store->insert(net, cold.algorithm, cold.spec, cold.engine, ref.run);
      }
      seconds += now() - t0;
    }
    {
      ScopedSpan s(rec, "cache.stats", i + 1);
      (void)store->stats();
    }
    inProcess[c] = seconds;
  }
  for (std::size_t i = 0; i < schedule_.size(); ++i)
    if (schedule_[i].kind != Arrival::Kind::kResend && sendToDone[i] >= 0 &&
        inProcess[contentOf_[i]] >= 0)
      overhead.push_back(sendToDone[i] - inProcess[contentOf_[i]]);

  const auto recs = trace().all();
  const auto us = [&](const char* name) { return medianMicros(recs, name); };
  out.add("cache.hash_us", us("cache.hash"), "us");
  out.add("cache.lookup_hit_us", us("cache.lookup_hit"), "us");
  out.add("cache.lookup_miss_us", us("cache.lookup_miss"), "us");
  out.add("cache.insert_us", us("cache.insert"), "us");
  out.add("cache.hit_over_cold",
          coldTimes.empty() ? 0.0 : median(hitTimes) / median(coldTimes),
          "ratio");
  out.add("io.encode_us", us("io.write_network"), "us");
  out.add("io.decode_us", us("io.read_network"), "us");
  out.add("server.overhead_us", median(overhead) * 1e6, "us");
}

}  // namespace

std::unique_ptr<Workload> makeServed(const RunConfig& config) {
  return std::make_unique<Served>(config, /*embedded=*/false);
}

std::unique_ptr<Workload> makeServedPhase(const RunConfig& config) {
  return std::make_unique<Served>(config, /*embedded=*/true);
}

}  // namespace perfbench
