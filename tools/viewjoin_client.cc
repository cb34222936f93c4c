// viewjoin_client — command-line client for viewjoin_server.
//
//   viewjoin_client --port-file /tmp/vj.port
//       --query '//people//person//name' --views '//people//person;//name'
//   viewjoin_client --port 4711 --status
//
// Exit codes mirror the server's verdicts so scripts can branch:
//   0  OK (matches printed)
//   1  server-side error verdict
//   2  usage error or transport failure (connect refused, reset, timeout on
//      the socket, malformed response)
//   3  query deadline expired server-side (TIMEOUT verdict)
//   4  rejected (quota or load shedding; Retry-After printed)
//   5  shutting down / cancelled by drain
//
// --inject-reset arms the deterministic socket fault injector on this
// process's end of the wire: the first send attempt is replaced by an
// abortive close, so the peer sees a real RST. Used by the CI smoke job to
// prove a client vanishing mid-request never wedges or crashes the server.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "util/fault_injection.h"

namespace {

using viewjoin::server::BackupResponse;
using viewjoin::server::Client;
using viewjoin::server::QueryRequest;
using viewjoin::server::QueryResponse;
using viewjoin::server::RefusalRetryPolicy;
using viewjoin::server::StatusResponse;
using viewjoin::server::UpdateRequest;
using viewjoin::server::UpdateResponse;
using viewjoin::server::Verdict;

void Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s (--port N | --port-file PATH) [--host IP]\n"
      "          (--query XPATH --views 'V1;V2;..' | --status |\n"
      "           --backup DIR |\n"
      "           --insert TAG@START --fragment XML [--after TAG@START] |\n"
      "           --delete TAG@START)\n"
      "          [--scheme E|T|LE|LE_p] [--algo TS|VJ|IJ|auto]\n"
      "          [--tenant NAME] [--deadline-ms MS] [--timeout-ms MS]\n"
      "          [--repeat N] [--retry N] [--retry-base-ms MS]\n"
      "          [--retry-cap-ms MS] [--token T] [--inject-reset]\n"
      "\n"
      "--insert/--delete may repeat; all ops travel as one atomic batch.\n"
      "--retry N re-sends a request refused with REJECTED/SHUTTING-DOWN up\n"
      "to N times, honoring Retry-After under a decorrelated-jitter backoff\n"
      "capped at --retry-cap-ms per attempt. Update batches carry an\n"
      "idempotency token (random unless --token is given), chosen once\n"
      "before the first attempt, so a retried batch applies exactly once.\n"
      "--backup DIR asks the server for an online hot backup into DIR on\n"
      "the server's filesystem ('' = the server's --backup-dir).\n",
      prog);
}

/// Parses "tag@start" node coordinates (as printed by query results).
bool ParseCoord(const std::string& text, std::string* tag, uint32_t* start) {
  size_t at = text.rfind('@');
  if (at == std::string::npos || at == 0 || at + 1 >= text.size()) return false;
  *tag = text.substr(0, at);
  char* end = nullptr;
  unsigned long value = std::strtoul(text.c_str() + at + 1, &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *start = static_cast<uint32_t>(value);
  return true;
}

std::vector<std::string> SplitList(const std::string& text) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find(';', begin);
    if (end == std::string::npos) end = text.size();
    if (end > begin) parts.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

/// A fresh 128-bit hex idempotency token, chosen once per client run so
/// every retry of the same batch carries the same token.
std::string RandomToken() {
  std::random_device rd;
  char buf[33];
  uint64_t hi = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  uint64_t lo = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

int VerdictExit(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk:
      return 0;
    case Verdict::kError:
      return 1;
    case Verdict::kTimeout:
      return 3;
    case Verdict::kRejected:
      return 4;
    case Verdict::kCancelled:
    case Verdict::kShuttingDown:
      return 5;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = -1;
  std::string port_file;
  QueryRequest request;
  UpdateRequest update;
  bool status_probe = false;
  bool backup = false;
  std::string backup_dir;
  double timeout_ms = 5000;
  int repeat = 1;
  int retries = 0;
  double retry_base_ms = 10;
  double retry_cap_ms = 500;
  bool inject_reset = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (arg == "--host") {
      if ((v = next()) == nullptr) return 2;
      host = v;
    } else if (arg == "--port") {
      if ((v = next()) == nullptr) return 2;
      port = std::atoi(v);
    } else if (arg == "--port-file") {
      if ((v = next()) == nullptr) return 2;
      port_file = v;
    } else if (arg == "--query") {
      if ((v = next()) == nullptr) return 2;
      request.query = v;
    } else if (arg == "--views") {
      if ((v = next()) == nullptr) return 2;
      request.views = SplitList(v);
    } else if (arg == "--scheme") {
      if ((v = next()) == nullptr) return 2;
      request.scheme = v;
    } else if (arg == "--algo") {
      if ((v = next()) == nullptr) return 2;
      request.algorithm = v;
    } else if (arg == "--tenant") {
      if ((v = next()) == nullptr) return 2;
      request.tenant = v;
    } else if (arg == "--deadline-ms") {
      if ((v = next()) == nullptr) return 2;
      request.deadline_ms = std::atof(v);
    } else if (arg == "--timeout-ms") {
      if ((v = next()) == nullptr) return 2;
      timeout_ms = std::atof(v);
    } else if (arg == "--repeat") {
      if ((v = next()) == nullptr) return 2;
      repeat = std::atoi(v);
    } else if (arg == "--retry") {
      if ((v = next()) == nullptr) return 2;
      retries = std::atoi(v);
    } else if (arg == "--retry-base-ms") {
      if ((v = next()) == nullptr) return 2;
      retry_base_ms = std::atof(v);
    } else if (arg == "--retry-cap-ms") {
      if ((v = next()) == nullptr) return 2;
      retry_cap_ms = std::atof(v);
    } else if (arg == "--insert" || arg == "--delete") {
      bool insert = arg == "--insert";
      if ((v = next()) == nullptr) return 2;
      UpdateRequest::Op op;
      op.kind = insert ? 0 : 1;
      if (!ParseCoord(v, &op.target_tag, &op.target_start)) {
        std::fprintf(stderr, "bad coordinates '%s' (want TAG@START)\n", v);
        return 2;
      }
      update.ops.push_back(std::move(op));
    } else if (arg == "--after" || arg == "--fragment") {
      if ((v = next()) == nullptr) return 2;
      if (update.ops.empty() || update.ops.back().kind != 0) {
        std::fprintf(stderr, "%s must follow --insert\n", arg.c_str());
        return 2;
      }
      if (arg == "--fragment") {
        update.ops.back().fragment = v;
      } else if (!ParseCoord(v, &update.ops.back().after_tag,
                             &update.ops.back().after_start)) {
        std::fprintf(stderr, "bad coordinates '%s' (want TAG@START)\n", v);
        return 2;
      }
    } else if (arg == "--status") {
      status_probe = true;
    } else if (arg == "--backup") {
      if ((v = next()) == nullptr) return 2;
      backup = true;
      backup_dir = v;
    } else if (arg == "--token") {
      if ((v = next()) == nullptr) return 2;
      update.token = v;
    } else if (arg == "--inject-reset") {
      inject_reset = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "r");
    if (f == nullptr || std::fscanf(f, "%d", &port) != 1) {
      std::fprintf(stderr, "cannot read port from %s\n", port_file.c_str());
      if (f != nullptr) std::fclose(f);
      return 2;
    }
    std::fclose(f);
  }
  if (port <= 0 || (!status_probe && !backup && request.query.empty() &&
                    update.ops.empty())) {
    Usage(argv[0]);
    return 2;
  }
  for (const UpdateRequest::Op& op : update.ops) {
    if (op.kind == 0 && op.fragment.empty()) {
      std::fprintf(stderr, "--insert needs a --fragment\n");
      return 2;
    }
  }

  Client client;
  client.set_deadline_ms(timeout_ms);
  viewjoin::util::Status connected =
      client.Connect(host, static_cast<uint16_t>(port), timeout_ms);
  if (!connected.ok()) {
    std::fprintf(stderr, "connect: %s\n", connected.ToString().c_str());
    return 2;
  }

  if (inject_reset) {
    // First send attempt from this process becomes an abortive close: the
    // server sees a mid-request RST from a vanished client.
    viewjoin::util::SocketFaultInjector::Global().ArmSendFault(
        viewjoin::util::SocketFault::kReset, /*nth=*/1, /*count=*/1,
        viewjoin::util::SocketEnd::kClient);
  }

  if (status_probe) {
    viewjoin::util::StatusOr<StatusResponse> status = client.GetStatus();
    if (!status.ok()) {
      std::fprintf(stderr, "status: %s\n", status.status().ToString().c_str());
      return 2;
    }
    std::printf(
        "healthy=%d ready=%d draining=%d in_flight=%llu queued=%llu\n"
        "accepted=%llu served=%llu rejected_quota=%llu rejected_shed=%llu "
        "rejected_draining=%llu\nread_timeouts=%llu frame_errors=%llu "
        "views_cached=%llu\nbackups_completed=%llu backups_failed=%llu "
        "update_dedup_hits=%llu resource_exhausted=%llu\n",
        status->healthy ? 1 : 0, status->ready ? 1 : 0,
        status->draining ? 1 : 0,
        static_cast<unsigned long long>(status->in_flight),
        static_cast<unsigned long long>(status->queued_connections),
        static_cast<unsigned long long>(status->connections_accepted),
        static_cast<unsigned long long>(status->queries_served),
        static_cast<unsigned long long>(status->rejected_quota),
        static_cast<unsigned long long>(status->rejected_shed),
        static_cast<unsigned long long>(status->rejected_draining),
        static_cast<unsigned long long>(status->read_timeouts),
        static_cast<unsigned long long>(status->frame_errors),
        static_cast<unsigned long long>(status->views_cached),
        static_cast<unsigned long long>(status->backups_completed),
        static_cast<unsigned long long>(status->backups_failed),
        static_cast<unsigned long long>(status->update_dedup_hits),
        static_cast<unsigned long long>(status->resource_exhausted));
    if (!status->last_backup_error.empty()) {
      std::fprintf(stderr, "last_backup_error: %s\n",
                   status->last_backup_error.c_str());
    }
    return status->ready ? 0 : 1;
  }

  if (backup) {
    viewjoin::util::StatusOr<BackupResponse> done =
        client.TriggerBackup(backup_dir);
    if (!done.ok()) {
      std::fprintf(stderr, "backup: %s\n", done.status().ToString().c_str());
      return 2;
    }
    std::printf("verdict=%s directory=%s epoch=%llu pages=%llu bytes=%llu "
                "server_ms=%.3f\n",
                viewjoin::server::VerdictName(done->verdict),
                done->directory.c_str(),
                static_cast<unsigned long long>(done->epoch),
                static_cast<unsigned long long>(done->view_pages),
                static_cast<unsigned long long>(done->bytes_copied),
                done->server_ms);
    if (!done->error.empty()) {
      std::fprintf(stderr, "error: %s\n", done->error.c_str());
    }
    return VerdictExit(done->verdict);
  }

  const uint64_t retry_seed = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  // A refused attempt may also lose its connection (the server retires
  // keep-alive sockets fast during drain); each retry reconnects if needed.
  auto reconnect = [&]() -> bool {
    if (client.connected()) return true;
    return client.Connect(host, static_cast<uint16_t>(port), timeout_ms).ok();
  };
  auto wait_and_retry = [&](RefusalRetryPolicy* policy, Verdict verdict,
                            double retry_after_ms) -> bool {
    double delay = policy->NextDelayMs(verdict, retry_after_ms);
    if (delay < 0) return false;
    std::fprintf(stderr, "refused (%s); retrying in %.1f ms (%d left)\n",
                 viewjoin::server::VerdictName(verdict), delay,
                 policy->remaining());
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(delay * 1000)));
    return true;
  };

  if (!update.ops.empty()) {
    update.tenant = request.tenant;
    // The idempotency token is fixed BEFORE the first attempt: every retry
    // below re-sends the identical token, so a batch whose response was
    // lost in flight is deduplicated server-side instead of re-applied.
    if (update.token.empty()) update.token = RandomToken();
    RefusalRetryPolicy policy(retries, retry_base_ms, retry_cap_ms,
                              retry_seed);
    for (;;) {
      if (!reconnect()) {
        std::fprintf(stderr, "reconnect failed\n");
        return 2;
      }
      viewjoin::util::StatusOr<UpdateResponse> response =
          client.Update(update);
      if (!response.ok()) {
        std::fprintf(stderr, "update: %s\n",
                     response.status().ToString().c_str());
        return 2;
      }
      if (wait_and_retry(&policy, response->verdict,
                         response->retry_after_ms)) {
        continue;
      }
      std::printf("verdict=%s applied=%llu epoch=%llu delta=%llu rebuilt=%llu "
                  "server_ms=%.3f%s\n",
                  viewjoin::server::VerdictName(response->verdict),
                  static_cast<unsigned long long>(response->applied),
                  static_cast<unsigned long long>(response->txn_epoch),
                  static_cast<unsigned long long>(response->delta_maintained),
                  static_cast<unsigned long long>(response->fully_rebuilt),
                  response->server_ms,
                  response->relabeled ? " relabeled" : "");
      if (!response->error.empty()) {
        std::fprintf(stderr, "error: %s\n", response->error.c_str());
      }
      for (const std::string& reason : response->failed) {
        std::fprintf(stderr, "failed: %s\n", reason.c_str());
      }
      return VerdictExit(response->verdict);
    }
  }

  int exit_code = 0;
  for (int n = 0; n < repeat; ++n) {
    RefusalRetryPolicy policy(retries, retry_base_ms, retry_cap_ms,
                              retry_seed + static_cast<uint64_t>(n));
    viewjoin::util::StatusOr<QueryResponse> response = client.Query(request);
    while (response.ok() &&
           wait_and_retry(&policy, response->verdict,
                          response->retry_after_ms)) {
      if (!reconnect()) {
        std::fprintf(stderr, "reconnect failed\n");
        return 2;
      }
      response = client.Query(request);
    }
    if (!response.ok()) {
      std::fprintf(stderr, "query: %s\n",
                   response.status().ToString().c_str());
      return 2;
    }
    std::printf("verdict=%s matches=%llu hash=%016llx server_ms=%.3f "
                "attempts=%u%s\n",
                viewjoin::server::VerdictName(response->verdict),
                static_cast<unsigned long long>(response->match_count),
                static_cast<unsigned long long>(response->result_hash),
                response->server_ms, response->attempts,
                response->degraded ? " degraded" : "");
    if (!response->error.empty()) {
      std::fprintf(stderr, "error: %s\n", response->error.c_str());
    }
    if (response->verdict == Verdict::kRejected) {
      std::fprintf(stderr, "retry after %.1f ms\n", response->retry_after_ms);
    }
    exit_code = VerdictExit(response->verdict);
    if (exit_code != 0) break;
  }
  return exit_code;
}
