/**
 * @file
 * Event base class for the discrete-event kernel.
 *
 * Events are intrusive: the queue stores their scheduled time, a
 * monotonically increasing sequence number (for deterministic FIFO
 * tie-breaking of same-tick events) and their queue position (heap
 * index or near-tier list links, see event_queue.hh) inside the event
 * object itself, so the hot path performs no allocation.
 */

#ifndef MEDIAWORM_SIM_EVENT_HH
#define MEDIAWORM_SIM_EVENT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>

#include "sim/time.hh"

namespace mediaworm::sim {

class EventQueue;

/**
 * A schedulable action.
 *
 * Subclasses implement fire(). The owning object typically embeds its
 * events by value and reschedules them; an event must outlive any
 * queue it is scheduled on.
 */
class Event
{
  public:
    Event() = default;
    virtual ~Event();

    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;

    /** Invoked by the kernel when simulated time reaches when(). */
    virtual void fire() = 0;

    /** Human-readable name for tracing. */
    virtual const char* name() const { return "Event"; }

    /** True if currently scheduled on a queue. */
    bool scheduled() const { return heapIndex_ != kUnscheduled; }

    /** Scheduled firing time; meaningless unless scheduled(). */
    Tick when() const { return when_; }

    /** Tie-break key of the most recent schedule (see EventQueue). */
    std::uint64_t seq() const { return seq_; }

    /**
     * Pins this event's tie-break key to @p key forever, instead of
     * the per-schedule monotone counter. Canonical keys occupy the
     * range below EventQueue's dynamic counter, so among same-tick
     * events every canonical-key event fires before every
     * counter-keyed event, and canonical-key events fire in key
     * order - a total order that does not depend on schedule-call
     * order. This is what lets conservative-parallel shards merge
     * cross-shard link events in the same order the single-threaded
     * kernel would have used (see sim/pdes.hh).
     *
     * Must be called before the first schedule; @p key must be
     * unique per queue among canonical events that can share a tick.
     */
    void
    setCanonicalSeq(std::uint64_t key)
    {
        seq_ = key;
        canonicalSeq_ = true;
    }

    /** True if setCanonicalSeq() pinned the tie-break key. */
    bool hasCanonicalSeq() const { return canonicalSeq_; }

  private:
    friend class EventQueue;

    /** heapIndex_ sentinel: not on any queue. */
    static constexpr std::int64_t kUnscheduled = -1;
    /** heapIndex_ sentinel: linked into a near-tier bucket. */
    static constexpr std::int64_t kInNearTier = -2;

    Tick when_ = kTickNever;
    std::uint64_t seq_ = 0;
    /**
     * Position marker. Non-negative values index the far-tier heap;
     * 64 bits wide so the index can never overflow the representable
     * range (the heap would exhaust memory first), unlike the
     * previous 31-bit field which silently narrowed heap_.size().
     */
    std::int64_t heapIndex_ = kUnscheduled;
    /** Near-tier bucket list links (meaningful only in the near tier). */
    Event* nearPrev_ = nullptr;
    Event* nearNext_ = nullptr;
    /** True once setCanonicalSeq() fixed seq_ permanently. */
    bool canonicalSeq_ = false;
};

namespace detail {

/** The class and the int parameters of a pointer-to-member-function. */
template <class M>
struct MemberFn;

template <class C, class... Args>
struct MemberFn<void (C::*)(Args...)>
{
    static_assert((std::is_same_v<Args, int> && ...),
                  "MemberFuncEvent binds int arguments only");
    using Class = C;
    static constexpr std::size_t kArity = sizeof...(Args);
};

} // namespace detail

/**
 * Event bound at compile time to one member function of one object,
 * and at bind time to that method's int arguments (a port, a VC).
 *
 * fire() is a direct call through a plain object pointer: no
 * std::function type erasure, no allocation, no captured state
 * beyond the object pointer and the bound arguments. Use it whenever
 * the action is "call this method on this object".
 *
 *   class Link {
 *       void deliverFlits();
 *       sim::MemberFuncEvent<&Link::deliverFlits> flitEvent_{this};
 *   };
 *   class Router {
 *       void serve(int port, int vc);
 *       sim::MemberFuncEvent<&Router::serve> event_{this, "serve", 2, 5};
 *   };
 *
 * Events embedded in default-constructed arrays start unbound and
 * take their object and arguments from bind().
 */
template <auto Method>
class MemberFuncEvent final : public Event
{
    using Fn = detail::MemberFn<decltype(Method)>;
    using Class = typename Fn::Class;

  public:
    /** Unbound; bind() before the first schedule. */
    MemberFuncEvent() = default;

    /** Binds to @p object and @p args; @p name is used for tracing. */
    template <class... Ints>
    explicit MemberFuncEvent(Class* object,
                             const char* name = "MemberFuncEvent",
                             Ints... args)
    {
        bind(object, name, args...);
    }

    /** (Re)binds the object, name and arguments; must not be
     *  scheduled when called. */
    template <class... Ints>
    void
    bind(Class* object, const char* name, Ints... args)
    {
        static_assert(sizeof...(Ints) == Fn::kArity
                          && (std::is_same_v<Ints, int> && ...),
                      "bind() takes one int per method parameter");
        object_ = object;
        name_ = name;
        args_ = {args...};
    }

    void
    fire() override
    {
        call(std::make_index_sequence<Fn::kArity>{});
    }

    const char* name() const override { return name_; }

  private:
    template <std::size_t... I>
    void
    call(std::index_sequence<I...>)
    {
        (object_->*Method)(args_[I]...);
    }

    Class* object_ = nullptr;
    const char* name_ = "MemberFuncEvent";
    [[no_unique_address]] std::array<int, Fn::kArity> args_{};
};

/**
 * Event adapter that invokes an arbitrary callable.
 *
 * Flexible but pays std::function type erasure per fire(); the
 * simulator itself uses MemberFuncEvent everywhere, and this adapter
 * serves tests and benchmarks that schedule ad-hoc lambdas.
 */
class CallbackEvent final : public Event
{
  public:
    CallbackEvent() = default;

    /** Constructs with the callable to run on fire(). */
    explicit CallbackEvent(std::function<void()> fn,
                           const char* name = "CallbackEvent")
        : fn_(std::move(fn)), name_(name)
    {
    }

    /** Replaces the callable; must not be scheduled when called. */
    void
    setCallback(std::function<void()> fn)
    {
        fn_ = std::move(fn);
    }

    void
    fire() override
    {
        fn_();
    }

    const char* name() const override { return name_; }

  private:
    std::function<void()> fn_;
    const char* name_ = "CallbackEvent";
};

} // namespace mediaworm::sim

#endif // MEDIAWORM_SIM_EVENT_HH
