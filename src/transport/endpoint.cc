#include "transport/endpoint.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "util/random.h"

namespace vastats::transport {
namespace {

// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
bool WriteAll(int fd, std::string_view bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

void SleepWallMs(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

Status EndpointOptions::Validate() const {
  if (service_threads < 1 || service_threads > 64) {
    return Status::InvalidArgument(
        "EndpointOptions.service_threads must be in [1, 64]");
  }
  if (wall_ms_per_virtual_ms < 0.0) {
    return Status::InvalidArgument(
        "EndpointOptions.wall_ms_per_virtual_ms must be >= 0");
  }
  if (straggler_fraction < 0.0 || straggler_fraction > 1.0) {
    return Status::InvalidArgument(
        "EndpointOptions.straggler_fraction must be in [0, 1]");
  }
  if (straggler_multiplier < 1.0) {
    return Status::InvalidArgument(
        "EndpointOptions.straggler_multiplier must be >= 1");
  }
  return Status::Ok();
}

Result<std::unique_ptr<EndpointGroup>> EndpointGroup::Create(
    const SourceSet& sources, const FaultModel* model,
    EndpointOptions options) {
  VASTATS_RETURN_IF_ERROR(options.Validate());
  if (sources.NumSources() <= 0) {
    return Status::InvalidArgument(
        "EndpointGroup needs at least one source to serve");
  }
  if (model != nullptr && model->num_sources() != sources.NumSources()) {
    return Status::InvalidArgument(
        "EndpointGroup fault model covers a different number of sources");
  }

  // Snapshot every source as its pre-encoded wire payload. Encoding once
  // up front means serving a request is a header append plus one blob copy
  // (or positioned read), never a re-sort.
  std::vector<std::string> payloads;
  payloads.reserve(static_cast<size_t>(sources.NumSources()));
  for (int s = 0; s < sources.NumSources(); ++s) {
    const auto sorted = sources.source(s).SortedBindings();
    std::vector<TransportBinding> bindings;
    bindings.reserve(sorted.size());
    for (const auto& [component, value] : sorted) {
      bindings.push_back(TransportBinding{component, value});
    }
    payloads.push_back(EncodeBindings(bindings));
  }

  std::string spool_dir;
  std::vector<int> payload_fds;
  if (options.file_backed_payloads) {
    char dir_template[] = "/tmp/vastats_endpoint_XXXXXX";
    if (::mkdtemp(dir_template) == nullptr) {
      return Status::Internal("EndpointGroup failed to create a spool dir");
    }
    spool_dir = dir_template;
    payload_fds.reserve(payloads.size());
    for (size_t s = 0; s < payloads.size(); ++s) {
      const std::string path =
          spool_dir + "/source_" + std::to_string(s) + ".bin";
      const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
      bool ok = fd >= 0 && WriteAll(fd, payloads[s]);
      if (!ok) {
        if (fd >= 0) ::close(fd);
        for (int open_fd : payload_fds) ::close(open_fd);
        return Status::Internal("EndpointGroup failed to spool payload " +
                                path);
      }
      payload_fds.push_back(fd);
    }
  }

  std::unique_ptr<EndpointGroup> group(
      new EndpointGroup(model, options, std::move(payloads),
                        std::move(payload_fds), std::move(spool_dir)));
  if (options.backend == EndpointBackend::kSocketPair) {
    if (::pipe(group->wake_pipe_) != 0) {
      return Status::Internal("EndpointGroup failed to create a wake pipe");
    }
    // Non-blocking read end: the receiver drains wake bytes with a read
    // loop that must stop at EAGAIN, not block.
    const int flags = ::fcntl(group->wake_pipe_[0], F_GETFL, 0);
    (void)::fcntl(group->wake_pipe_[0], F_SETFL, flags | O_NONBLOCK);
  }
  group->StartThreads();
  return group;
}

EndpointGroup::EndpointGroup(const FaultModel* model, EndpointOptions options,
                             std::vector<std::string> payloads,
                             std::vector<int> payload_fds,
                             std::string spool_dir)
    : model_(model),
      options_(options),
      payloads_(std::move(payloads)),
      payload_fds_(std::move(payload_fds)),
      spool_dir_(std::move(spool_dir)) {}

EndpointGroup::~EndpointGroup() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  WakeReceiver();
  for (std::thread& t : service_threads_) t.join();
  if (receive_thread_.joinable()) receive_thread_.join();

  for (const auto& channel : channels_) {
    if (channel->fd >= 0) ::close(channel->fd);
  }
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
  for (size_t s = 0; s < payload_fds_.size(); ++s) {
    ::close(payload_fds_[s]);
    const std::string path =
        spool_dir_ + "/source_" + std::to_string(s) + ".bin";
    ::unlink(path.c_str());
  }
  if (!spool_dir_.empty()) ::rmdir(spool_dir_.c_str());
}

void EndpointGroup::StartThreads() {
  service_threads_.reserve(static_cast<size_t>(options_.service_threads));
  for (int i = 0; i < options_.service_threads; ++i) {
    service_threads_.emplace_back([this] { ServiceLoop(); });
  }
  if (options_.backend == EndpointBackend::kSocketPair) {
    receive_thread_ = std::thread([this] { ReceiveLoop(); });
  }
}

uint64_t EndpointGroup::RegisterChannel(ResponseSink* sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto channel = std::make_unique<Channel>();
  channel->id = next_channel_id_++;
  channel->sink = sink;
  const uint64_t id = channel->id;
  channels_.push_back(std::move(channel));
  return id;
}

Result<uint64_t> EndpointGroup::RegisterChannelFd(int* client_fd) {
  if (options_.backend != EndpointBackend::kSocketPair) {
    return Status::FailedPrecondition(
        "RegisterChannelFd requires the kSocketPair backend");
  }
  int pair[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
    return Status::Internal("EndpointGroup failed to create a socket pair");
  }
  // The endpoint end is read by the poll loop; non-blocking reads let one
  // readiness wakeup drain everything buffered.
  const int flags = ::fcntl(pair[0], F_GETFL, 0);
  (void)::fcntl(pair[0], F_SETFL, flags | O_NONBLOCK);

  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto channel = std::make_unique<Channel>();
    channel->id = next_channel_id_++;
    channel->fd = pair[0];
    id = channel->id;
    channels_.push_back(std::move(channel));
  }
  WakeReceiver();
  *client_fd = pair[1];
  return id;
}

void EndpointGroup::UnregisterChannel(uint64_t channel_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  Channel* channel = LockedFindChannel(channel_id);
  if (channel == nullptr) return;
  channel->draining = true;
  std::erase_if(queue_, [channel_id](const WireRequest& request) {
    return request.channel == channel_id;
  });
  const bool has_fd = channel->fd >= 0;
  const uint64_t generation = poll_generation_;
  if (has_fd) WakeReceiver();
  drain_cv_.wait(lock, [&] {
    return channel->in_service == 0 &&
           (!has_fd || poll_generation_ > generation || shutdown_);
  });
  if (channel->fd >= 0) ::close(channel->fd);
  std::erase_if(channels_, [channel_id](const std::unique_ptr<Channel>& c) {
    return c->id == channel_id;
  });
}

void EndpointGroup::Submit(const WireRequest& request) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Channel* channel = LockedFindChannel(request.channel);
    if (channel == nullptr || channel->draining) return;
    queue_.push_back(request);
  }
  work_cv_.notify_one();
}

void EndpointGroup::ServiceLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (shutdown_) return;
    const WireRequest request = queue_.front();
    queue_.pop_front();
    Channel* channel = LockedFindChannel(request.channel);
    if (channel == nullptr || channel->draining) continue;
    ++channel->in_service;
    lock.unlock();
    Serve(request, channel);
    lock.lock();
    --channel->in_service;
    drain_cv_.notify_all();
  }
}

void EndpointGroup::Serve(const WireRequest& request, Channel* channel) {
  // The outcome is a pure function of the request key — the exact decision
  // the simulated seam would make inline. This is the transport's parity
  // anchor: hedged duplicates (same key, fresh id) get identical answers.
  bool failed = false;
  double virtual_ms = 0.0;
  if (model_ != nullptr) {
    virtual_ms = model_->AttemptLatencyMs(request.source, request.epoch,
                                          request.attempt,
                                          request.num_components);
    failed = model_->PermanentlyOut(request.source, request.epoch) ||
             model_->AttemptFails(request.source, request.epoch,
                                  request.attempt);
  }

  if (options_.wall_ms_per_virtual_ms > 0.0) {
    double wall_ms = virtual_ms * options_.wall_ms_per_virtual_ms;
    if (options_.straggler_fraction > 0.0) {
      // Keyed by request id, not visit key: a hedged duplicate re-rolls its
      // straggler fate, which is precisely why hedging helps.
      Rng rng(StreamKey(options_.straggler_seed, StreamTag::kStraggler,
                        request.id));
      if (rng.Uniform01() < options_.straggler_fraction) {
        wall_ms *= options_.straggler_multiplier;
      }
    }
    SleepWallMs(wall_ms);
  }

  std::string file_scratch;
  const std::string_view body =
      failed ? std::string_view{} : PayloadFor(request.source, &file_scratch);
  std::string frame;
  AppendResponseFrame(request.id, failed, virtual_ms, body, &frame);

  std::lock_guard<std::mutex> write_lock(channel->write_mutex);
  if (channel->sink != nullptr) {
    channel->sink->DeliverFrame(frame);
  } else if (channel->fd >= 0) {
    // A torn write cannot be repaired mid-stream; the client surfaces the
    // stall through its own failure handling.
    (void)WriteAll(channel->fd, frame);
  }
}

std::string_view EndpointGroup::PayloadFor(int source,
                                           std::string* file_scratch) const {
  const auto index = static_cast<size_t>(source);
  if (index >= payloads_.size()) return {};
  if (payload_fds_.empty()) return payloads_[index];
  // File-backed mode: serve with a positioned read so concurrent service
  // threads share the fd without seeking under each other.
  const size_t size = payloads_[index].size();
  file_scratch->resize(size);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(payload_fds_[index], file_scratch->data() + done,
                              size - done, static_cast<off_t>(done));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return {};
    }
    done += static_cast<size_t>(n);
  }
  return *file_scratch;
}

void EndpointGroup::ReceiveLoop() {
  std::vector<pollfd> poll_fds;
  std::vector<Channel*> poll_channels;
  while (true) {
    poll_fds.clear();
    poll_channels.clear();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Advancing the generation with the new (draining-free) set captured
      // is what lets UnregisterChannel close its fd safely: after this
      // point the receiver never touches an excluded fd again.
      ++poll_generation_;
      drain_cv_.notify_all();
      if (shutdown_) return;
      poll_fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
      poll_channels.push_back(nullptr);
      for (const auto& channel : channels_) {
        if (channel->fd >= 0 && !channel->draining) {
          poll_fds.push_back(pollfd{channel->fd, POLLIN, 0});
          poll_channels.push_back(channel.get());
        }
      }
    }

    const int ready = ::poll(poll_fds.data(), poll_fds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }

    if ((poll_fds[0].revents & POLLIN) != 0) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }

    for (size_t i = 1; i < poll_fds.size(); ++i) {
      if ((poll_fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Channel* channel = poll_channels[i];
      char buffer[4096];
      bool got_bytes = false;
      while (true) {
        const ssize_t n = ::read(poll_fds[i].fd, buffer, sizeof(buffer));
        if (n > 0) {
          channel->rx_buffer.append(buffer, static_cast<size_t>(n));
          got_bytes = true;
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        break;  // EAGAIN (drained), EOF, or error
      }
      if (!got_bytes) continue;

      size_t consumed = 0;
      bool submitted = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        while (true) {
          WireRequest request;
          const Result<size_t> decoded = DecodeRequestFrame(
              std::string_view(channel->rx_buffer).substr(consumed), &request);
          if (!decoded.ok()) {
            // A corrupt stream cannot be resynchronized; drop the buffer
            // and let the client's stall handling surface it.
            channel->rx_buffer.clear();
            consumed = 0;
            break;
          }
          if (decoded.value() == 0) break;  // partial frame: wait for more
          consumed += decoded.value();
          if (!channel->draining) {
            queue_.push_back(request);
            submitted = true;
          }
        }
        if (consumed > 0) channel->rx_buffer.erase(0, consumed);
      }
      if (submitted) work_cv_.notify_all();
    }
  }
}

EndpointGroup::Channel* EndpointGroup::LockedFindChannel(uint64_t id) {
  for (const auto& channel : channels_) {
    if (channel->id == id) return channel.get();
  }
  return nullptr;
}

void EndpointGroup::WakeReceiver() {
  if (wake_pipe_[1] < 0) return;
  const char byte = 1;
  ssize_t n;
  do {
    n = ::write(wake_pipe_[1], &byte, 1);
  } while (n < 0 && errno == EINTR);
}

}  // namespace vastats::transport
