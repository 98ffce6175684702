// taamr_serve: online serving front-end over src/serve. Boots the TAaMR
// pipeline (synthetic dataset, product images, CNN features), trains the
// recommenders, then answers newline-delimited JSON requests over stdin or
// a TCP loopback socket (see serve/protocol.hpp for the wire format).
//
//   taamr_serve --scale 0.004 --vbpr-epochs 20            # stdin/stdout
//   taamr_serve --port 7787 &                             # 127.0.0.1:7787
//
// Both modes answer through a ShardRouter (serve/shard_router.hpp), whose
// respond() handles every op but the three that act on this process; TCP
// mode serves through the router's front door, an epoll EventLoop
// (serve/event_loop.hpp) that sheds overload and drains on shutdown. stdin
// mode is a synchronous loop for scripting and smoke tests.
//
// The update_image op closes the paper's loop online: re-render the item's
// product photo from a new seed (a stand-in for an adversarially replaced
// image), re-extract its CNN features, and hot-swap them into the serving
// models — subsequent recommend responses reflect the new features.
#include <atomic>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/pipeline.hpp"
#include "data/image_gen.hpp"
#include "metrics/image_quality.hpp"
#include "obs/profiler.hpp"
#include "obs/request_context.hpp"
#include "recsys/bpr_mf.hpp"
#include "serve/event_loop.hpp"
#include "serve/protocol.hpp"
#include "serve/shard_router.hpp"
#include "util/args.hpp"
#include "util/logging.hpp"
#include "util/thread_name.hpp"

namespace {

using namespace taamr;

struct Server {
  core::Pipeline* pipeline = nullptr;
  serve::ShardRouter* router = nullptr;
  // Set while TCP serving so a shutdown op (handled on a shard worker) can
  // begin the event loop's drain-then-close sequence.
  std::atomic<serve::EventLoop*> loop{nullptr};
  std::mutex classifier_mutex;  // feature extraction mutates layer scratch
  // Last rendered image per item, so an update_image push can be scored
  // with SSIM against what it replaces — the perceptual fingerprint of an
  // iterative adversarial loop (high SSIM, repeated pushes).
  std::mutex image_mutex;
  std::unordered_map<std::int64_t, Tensor> last_images;
  std::atomic<bool> shutting_down{false};

  std::string handle_line(const std::string& line);
};

// The router answers every op but the three that act on this process:
// update_image needs the pipeline's renderer and CNN, profile holds the
// profiler, and shutdown drives the event loop.
std::string Server::handle_line(const std::string& line) {
  obs::RequestContext ctx;
  try {
    const serve::Request req = serve::parse_request(line);
    ctx.mark("parse");
    switch (req.op) {
      case serve::Op::kUpdateImage: {
        const auto& dataset = router->dataset();
        if (req.item < 0 || req.item >= dataset.num_items) {
          return serve::format_error("update_image: item out of range");
        }
        const std::int32_t cat = dataset.item_category[static_cast<std::size_t>(req.item)];
        Tensor img = data::render_item_image(
            data::fashion_taxonomy()[static_cast<std::size_t>(cat)].style, req.seed,
            pipeline->config().image_config());
        Tensor feats;
        {
          std::lock_guard<std::mutex> lock(classifier_mutex);
          feats = pipeline->classifier().features(
              img.reshaped({1, img.dim(0), img.dim(1), img.dim(2)}));
        }
        serve::RecommendService::UpdateOrigin origin;
        origin.source = "update_image";
        {
          std::lock_guard<std::mutex> lock(image_mutex);
          auto it = last_images.find(req.item);
          if (it != last_images.end()) {
            origin.ssim = metrics::ssim(it->second, img);
          }
          last_images.insert_or_assign(req.item, std::move(img));
        }
        const std::uint64_t epoch = router->update_item_features(
            req.item, {feats.data(), static_cast<std::size_t>(feats.dim(1))},
            origin);
        return serve::format_ok("\"epoch\":" + std::to_string(epoch));
      }
      case serve::Op::kProfile: {
        // On-demand CPU window from the live process: collapsed stacks,
        // "# EOF"-framed like metrics. The handling shard worker sleeps for
        // the window; the other workers keep serving (and are what the
        // samples catch).
        std::string text =
            obs::Profiler::global().profile_window_folded(req.seconds);
        text += "# EOF";
        return text;
      }
      case serve::Op::kShutdown: {
        shutting_down.store(true);
        // TCP mode: drain-then-close — this response is already admitted,
        // so it is flushed before the connection closes.
        if (serve::EventLoop* l = loop.load()) l->request_shutdown();
        return serve::format_ok();
      }
      default:
        return router->respond(req, &ctx);
    }
  } catch (const std::exception& e) {
    return serve::format_error(e.what());
  }
}

void serve_stdin(Server& server) {
  std::string line;
  while (!server.shutting_down.load() && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    std::cout << server.handle_line(line) << "\n" << std::flush;
  }
}

int serve_tcp(Server& server, int port) {
  serve::EventLoopConfig cfg;
  cfg.port = port;
  const std::unique_ptr<serve::EventLoop> loop = server.router->front_door(
      cfg, [&server](std::size_t, const std::string& line) {
        return server.handle_line(line);
      });
  server.loop.store(loop.get());
  try {
    loop->start();
  } catch (const std::exception& e) {
    std::cerr << "taamr_serve: " << e.what() << "\n";
    server.loop.store(nullptr);
    return 1;
  }
  std::cout << "taamr_serve: listening on 127.0.0.1:" << loop->port() << " ("
            << server.router->num_shards() << " shards)\n"
            << std::flush;
  const int rc = loop->join();
  server.loop.store(nullptr);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace taamr;
  set_current_thread_name("main");
  // Construct the profiler before any work so a TAAMR_PROFILE run covers
  // pipeline prepare + training + serving, and on-demand profile ops have
  // an instance whose artifacts land at exit.
  obs::Profiler::global();
  ArgParser args(argc, argv);

  core::PipelineConfig config;
  config.dataset_name = args.get("dataset", "Amazon Men");
  config.scale = args.get_double("scale", data::kTestScale);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  config.image_size = args.get_int("image-size", 16);
  config.cnn_epochs = args.get_int("cnn-epochs", 1);
  config.cnn_images_per_category = args.get_int("images-per-cat", 24);
  config.vbpr.epochs = args.get_int("vbpr-epochs", 20);
  config.cache_dir = args.get("cache-dir", "");
  const std::int64_t bpr_epochs = args.get_int("bpr-epochs", 20);
  const int port = static_cast<int>(args.get_int("port", 0));

  for (const std::string& flag : args.unused()) {
    std::cerr << "taamr_serve: unknown flag --" << flag << "\n";
    return 2;
  }

  core::Pipeline pipeline(config);
  pipeline.prepare();
  const data::ImplicitDataset& dataset = pipeline.dataset();

  serve::ModelRegistry registry(dataset);
  registry.register_model("vbpr", std::shared_ptr<const recsys::Vbpr>(pipeline.train_vbpr()),
                          /*visual=*/true);
  {
    Rng rng(config.seed + 17);
    recsys::BprMfConfig bpr_config;
    bpr_config.epochs = bpr_epochs;
    auto bpr = std::make_shared<recsys::BprMf>(dataset, bpr_config, rng);
    bpr->fit(dataset, rng);
    registry.register_model("bpr_mf", std::move(bpr), /*visual=*/false);
  }

  serve::ShardRouter router(dataset, registry, pipeline.clean_features());

  Server server;
  server.pipeline = &pipeline;
  server.router = &router;

  std::cout << "taamr_serve: ready (" << dataset.name << ", " << dataset.num_users
            << " users, " << dataset.num_items << " items, models: vbpr bpr_mf)\n"
            << std::flush;

  if (port > 0) return serve_tcp(server, port);
  serve_stdin(server);
  return 0;
}
