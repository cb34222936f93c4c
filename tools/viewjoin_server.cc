// viewjoin_server — long-lived ViewJoin query daemon.
//
// Serves tree pattern queries over a generated (or parsed) document through
// the length-prefixed binary protocol in src/server/wire.h, with per-tenant
// quotas, load shedding, slowloris read deadlines, and graceful drain.
//
//   viewjoin_server --xmark 0.5 --store /tmp/views.db --port 0
//                   --port-file /tmp/vj.port
//
// Shutdown contract (what the drain tests and the CI smoke job exercise):
//   SIGTERM/SIGINT   graceful drain: stop accepting, answer queued requests
//                    with SHUTTING_DOWN, let in-flight queries finish (or be
//                    deadline-aborted at --drain-deadline-ms), close the
//                    catalog crash-safely, exit 0 (1 if the drain watchdog
//                    had to abort stragglers).
//   second signal    hard kill: abort in-flight queries immediately, finish
//                    teardown, exit 130.
//
// The view store is opened in persistent (journaled) mode, so after any exit
// `vj_fsck <store>` can vouch for it.

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "data/nasa_generator.h"
#include "data/xmark_generator.h"
#include "server/server.h"
#include "util/env.h"
#include "xml/parser.h"

namespace {

using viewjoin::core::Engine;
using viewjoin::core::EngineOptions;
using viewjoin::server::QueryServer;
using viewjoin::server::ServerOptions;

int g_signal_pipe[2] = {-1, -1};

// Distinct self-pipe bytes: 1 = drain (SIGTERM/SIGINT), 2 = hot backup
// (SIGUSR2). The main loop demultiplexes; a backup never advances the
// shutdown state machine.
void OnSignal(int) {
  // Self-pipe: the only async-signal-safe thing here is write(2); the main
  // loop does the actual drain.
  char byte = 1;
  ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

void OnBackupSignal(int) {
  char byte = 2;
  ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

struct Options {
  std::string xml_path;
  double xmark_scale = 0;
  int64_t nasa_datasets = 0;
  std::string store_path;
  std::string port_file;
  std::vector<std::string> views;
  std::string scheme = "LE";
  bool scrub = false;
  ServerOptions server;
};

void Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s (--xml FILE | --xmark SCALE | --nasa DATASETS)\n"
      "          --store PATH [--port N] [--port-file PATH]\n"
      "          [--views 'V1;V2;..'] [--scheme E|T|LE|LE_p] [--scrub]\n"
      "          [--workers N] [--max-pending N]\n"
      "          [--quota-rate QPS] [--quota-burst N]\n"
      "          [--deadline-ms MS] [--drain-deadline-ms MS]\n"
      "          [--read-deadline-ms MS]\n"
      "          [--memory-budget BYTES] [--memory-high-water BYTES]\n"
      "          [--backup-dir DIR]\n"
      "SIGUSR2 triggers an online hot backup into --backup-dir while the\n"
      "server keeps serving. Env knobs (strict): VIEWJOIN_BACKUP_RATE_BYTES\n"
      "paces backup copies in bytes/sec (0 = unthrottled);\n"
      "VIEWJOIN_UPDATE_DEDUP_WINDOW sizes the update idempotency window\n"
      "(0 disables).\n",
      prog);
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

bool ParseArgs(int argc, char** argv, Options* options) {
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
    if (arg == "--xml") {
      if ((v = next()) == nullptr) return false;
      options->xml_path = v;
    } else if (arg == "--xmark") {
      if ((v = next()) == nullptr) return false;
      options->xmark_scale = std::atof(v);
    } else if (arg == "--nasa") {
      if ((v = next()) == nullptr) return false;
      options->nasa_datasets = std::atol(v);
    } else if (arg == "--store") {
      if ((v = next()) == nullptr) return false;
      options->store_path = v;
    } else if (arg == "--port") {
      if ((v = next()) == nullptr) return false;
      options->server.port = static_cast<uint16_t>(std::atoi(v));
    } else if (arg == "--port-file") {
      if ((v = next()) == nullptr) return false;
      options->port_file = v;
    } else if (arg == "--views") {
      if ((v = next()) == nullptr) return false;
      options->views = SplitList(v);
    } else if (arg == "--scheme") {
      if ((v = next()) == nullptr) return false;
      options->scheme = v;
    } else if (arg == "--scrub") {
      options->scrub = true;
    } else if (arg == "--workers") {
      if ((v = next()) == nullptr) return false;
      options->server.workers = static_cast<size_t>(std::atol(v));
    } else if (arg == "--max-pending") {
      if ((v = next()) == nullptr) return false;
      options->server.max_pending = static_cast<size_t>(std::atol(v));
    } else if (arg == "--quota-rate") {
      if ((v = next()) == nullptr) return false;
      options->server.quota_rate_per_sec = std::atof(v);
    } else if (arg == "--quota-burst") {
      if ((v = next()) == nullptr) return false;
      options->server.quota_burst = std::atof(v);
    } else if (arg == "--deadline-ms") {
      if ((v = next()) == nullptr) return false;
      options->server.default_deadline_ms = std::atof(v);
    } else if (arg == "--drain-deadline-ms") {
      if ((v = next()) == nullptr) return false;
      options->server.drain_deadline_ms = std::atof(v);
    } else if (arg == "--read-deadline-ms") {
      if ((v = next()) == nullptr) return false;
      options->server.read_deadline_ms = std::atof(v);
      options->server.write_deadline_ms = std::atof(v);
    } else if (arg == "--memory-budget") {
      if ((v = next()) == nullptr) return false;
      options->server.per_query_memory_budget =
          static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--memory-high-water") {
      if ((v = next()) == nullptr) return false;
      options->server.memory_high_water_bytes =
          static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--backup-dir") {
      if ((v = next()) == nullptr) return false;
      options->server.backup_dir = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  bool has_source = !options->xml_path.empty() || options->xmark_scale > 0 ||
                    options->nasa_datasets > 0;
  if (!has_source || options->store_path.empty()) {
    std::fprintf(stderr,
                 "a document source (--xml/--xmark/--nasa) and --store are "
                 "required\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage(argv[0]);
    return 2;
  }

  // Strict env knobs: a typo'd value is a startup error, not a silent
  // default.
  viewjoin::util::StatusOr<int64_t> rate =
      viewjoin::util::ParseNonNegativeIntEnv(
          "VIEWJOIN_BACKUP_RATE_BYTES",
          static_cast<int64_t>(options.server.backup_rate_bytes));
  if (!rate.ok()) {
    std::fprintf(stderr, "%s\n", rate.status().ToString().c_str());
    return 2;
  }
  options.server.backup_rate_bytes = static_cast<uint64_t>(*rate);
  viewjoin::util::StatusOr<int64_t> window =
      viewjoin::util::ParseNonNegativeIntEnv(
          "VIEWJOIN_UPDATE_DEDUP_WINDOW",
          static_cast<int64_t>(options.server.update_dedup_window));
  if (!window.ok()) {
    std::fprintf(stderr, "%s\n", window.status().ToString().c_str());
    return 2;
  }
  options.server.update_dedup_window = static_cast<size_t>(*window);

  viewjoin::xml::Document doc;
  if (!options.xml_path.empty()) {
    viewjoin::xml::ParseResult parsed =
        viewjoin::xml::ParseDocumentFile(options.xml_path);
    if (!parsed.ok()) {
      std::fprintf(stderr, "cannot parse %s: %s\n", options.xml_path.c_str(),
                   parsed.error.c_str());
      return 2;
    }
    doc = std::move(*parsed.document);
  } else if (options.xmark_scale > 0) {
    doc = viewjoin::data::GenerateXmark({.scale = options.xmark_scale});
  } else {
    doc = viewjoin::data::GenerateNasa({.datasets = options.nasa_datasets});
  }

  EngineOptions engine_options;
  engine_options.persistent = true;  // drain must leave a store fsck trusts
  engine_options.scrub = options.scrub;
  Engine engine(&doc, options.store_path, engine_options);

  std::optional<viewjoin::storage::Scheme> scheme =
      viewjoin::storage::ParseScheme(options.scheme);
  if (!scheme.has_value()) {
    std::fprintf(stderr, "bad --scheme %s\n", options.scheme.c_str());
    return 2;
  }
  for (const std::string& view : options.views) {
    viewjoin::util::StatusOr<const viewjoin::storage::MaterializedView*> made =
        engine.TryAddView(view, *scheme);
    if (!made.ok()) {
      std::fprintf(stderr, "bad view '%s': %s\n", view.c_str(),
                   made.status().ToString().c_str());
      return 2;
    }
  }

  // The self-pipe must exist before the handlers are armed.
  if (::pipe(g_signal_pipe) != 0) {
    std::perror("pipe");
    return 2;
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  struct sigaction backup_action;
  std::memset(&backup_action, 0, sizeof(backup_action));
  backup_action.sa_handler = OnBackupSignal;
  ::sigaction(SIGUSR2, &backup_action, nullptr);

  QueryServer server(&engine, options.server);
  viewjoin::util::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start: %s\n", started.ToString().c_str());
    return 2;
  }

  if (!options.port_file.empty()) {
    // Written atomically (tmp + rename) so a watcher never reads a torn file.
    std::string tmp = options.port_file + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      std::perror("port-file");
      return 2;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
    std::rename(tmp.c_str(), options.port_file.c_str());
  }
  std::printf("serving on 127.0.0.1:%u\n", server.port());
  std::fflush(stdout);

  // Serve until a drain signal; SIGUSR2 bytes trigger hot backups in a
  // helper thread so serving (and later signals) are never blocked on a
  // rate-limited copy.
  std::vector<std::thread> backup_threads;
  char byte;
  for (;;) {
    ssize_t n = ::read(g_signal_pipe[0], &byte, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    if (byte == 2) {
      backup_threads.emplace_back([&server] {
        viewjoin::server::BackupResponse done = server.TriggerBackup();
        if (done.verdict == viewjoin::server::Verdict::kOk) {
          std::printf("backup complete: %s (epoch %llu, %llu bytes)\n",
                      done.directory.c_str(),
                      static_cast<unsigned long long>(done.epoch),
                      static_cast<unsigned long long>(done.bytes_copied));
        } else {
          std::printf("backup failed: %s\n", done.error.c_str());
        }
        std::fflush(stdout);
      });
      continue;
    }
    break;  // byte == 1: drain
  }
  std::printf("draining...\n");
  std::fflush(stdout);

  // Drain in a helper thread so a second signal can still reach us here.
  std::atomic<bool> drain_done{false};
  bool drain_clean = false;
  std::thread drainer([&] {
    drain_clean = server.Drain();
    drain_done.store(true, std::memory_order_release);
  });

  bool hard_killed = false;
  while (!drain_done.load(std::memory_order_acquire)) {
    struct pollfd pfd = {g_signal_pipe[0], POLLIN, 0};
    int ready = ::poll(&pfd, 1, 50);
    if (ready > 0 && !hard_killed) {
      while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
      }
      if (byte == 2) continue;  // a late SIGUSR2 is not a hard-kill request
      std::printf("hard kill\n");
      std::fflush(stdout);
      server.HardKill();
      hard_killed = true;
    }
  }
  drainer.join();
  for (std::thread& t : backup_threads) {
    if (t.joinable()) t.join();
  }

  if (hard_killed) return 130;
  std::printf("drained %s\n", drain_clean ? "clean" : "forced");
  return drain_clean ? 0 : 1;
}
