#include "directives/interp.hpp"

#include "service/plan_service.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt::dir {

Interpreter::Interpreter(ProcessorSpace& space) : space_(&space) {
  env_ = std::make_unique<DataEnv>(space);
  binder_ = std::make_unique<Binder>(space, *env_);
}

void Interpreter::note(std::string line) { trace_.push_back(std::move(line)); }

void Interpreter::run(const std::string& source) {
  AstProgram program = parse_program(source);
  // Accumulate subroutines across run() calls so scripts can be fed in
  // pieces; main nodes execute immediately.
  for (AstSubroutine& sub : program.subroutines) {
    program_.subroutines.push_back(std::move(sub));
  }
  for (const AstNode& node : program.main) {
    exec_node(node, *binder_);
  }
}

const AstSubroutine& Interpreter::find_subroutine(
    const std::string& name) const {
  for (const AstSubroutine& sub : program_.subroutines) {
    if (iequals(sub.name, name)) return sub;
  }
  throw ConformanceError("unknown subroutine '" + name + "'");
}

void Interpreter::create_storage_for(DataEnv& env, const std::string& name) {
  if (!state_) return;
  DistArray& array = env.find(name);
  if (array.is_created() && !state_->exists(array.id())) {
    state_->create(env, array);
  }
}

void Interpreter::exec_node(const AstNode& node, Binder& binder) {
  // Attach the statement's source line to conformance and mapping errors
  // raised past the binder (CALL arity, array-assignment execution, a
  // zero-stride section, ...). The binder already locates its own;
  // located() stops double-wrapping so the innermost (most precise)
  // location wins.
  try {
    exec_node_impl(node, binder);
  } catch (const ConformanceError& e) {
    if (e.located()) throw;
    throw ConformanceError(e.message(), node.line, 1);
  } catch (const MappingError& e) {
    if (e.located()) throw;
    throw MappingError(e.message(), node.line, 1);
  }
}

void Interpreter::exec_node_impl(const AstNode& node, Binder& binder) {
  DataEnv& env = binder.env();
  switch (node.kind) {
    case AstNode::Kind::kCall:
      exec_call(*node.call, binder);
      return;
    case AstNode::Kind::kArrayAssign: {
      const AstArrayAssign& a = *node.array_assign;
      BoundArrayAssign b = binder.bind_array_assign(a);
      if (!state_) {
        note(cat(a.name, " = <expr> (no program state attached)"));
        return;
      }
      AssignExec exec;
      exec.lhs = a.name;
      exec.line = node.line;
      exec.result =
          hpfnt::assign(*state_, env, *b.lhs, b.section, b.rhs, a.name);
      note(exec.result.step.to_string());
      steps_.push_back(exec.result.step);
      assigns_.push_back(std::move(exec));
      return;
    }
    case AstNode::Kind::kStats: {
      // Surface the plan-cache counters while the session still has them:
      // the L1 PlanCache is per-session and its counters silently reset
      // with it, so a script asserts cache behavior here, not post-mortem.
      if (!state_) {
        note("STATS (no program state attached)");
        return;
      }
      PlanCacheStats snap;
      const PlanCache& plans = state_->plans();
      snap.hits = plans.hits();
      snap.misses = plans.misses();
      snap.evictions = plans.evictions();
      snap.size = static_cast<Extent>(plans.size());
      std::string line =
          cat("STATS plans hits=", snap.hits, " misses=", snap.misses,
              " evictions=", snap.evictions, " size=", snap.size);
      if (PlanService* service = state_->plan_service()) {
        const PlanServiceStats shared = service->stats();
        snap.shared_attached = true;
        snap.shared_hits = shared.hits();
        snap.shared_misses = shared.misses();
        snap.shared_inserts = shared.inserts();
        snap.shared_evictions = shared.evictions();
        line += cat(" | shared hits=", snap.shared_hits,
                    " misses=", snap.shared_misses,
                    " inserts=", snap.shared_inserts,
                    " evictions=", snap.shared_evictions);
      }
      snap.comm_exposed_us = state_->comm().total_exposed_comm_us();
      snap.comm_hidden_us = state_->comm().total_hidden_comm_us();
      line += cat(" | comm exposed=", snap.comm_exposed_us,
                  "us hidden=", snap.comm_hidden_us, "us");
      plan_stats_.push_back(snap);
      note(std::move(line));
      return;
    }
    case AstNode::Kind::kFaults: {
      const AstFaults& f = *node.faults;
      const Index1 seed = binder.eval(f.seed);
      const Index1 permille = binder.eval(f.prob_permille);
      const Index1 retries = binder.eval(f.retries);
      if (permille < 0 || permille > 1000) {
        throw ConformanceError(
            cat("FAULTS: probability is per-mille and must be in 0..1000, "
                "got ",
                permille));
      }
      if (retries < 0) {
        throw ConformanceError(
            cat("FAULTS: retry budget must be >= 0, got ", retries));
      }
      if (!state_) {
        note("FAULTS (no program state attached)");
        return;
      }
      FaultConfig config;
      config.seed = static_cast<std::uint64_t>(seed);
      config.prob = static_cast<double>(permille) / 1000.0;
      config.max_retries = static_cast<int>(retries);
      state_->comm().set_fault_config(config);
      note(cat("FAULTS seed=", seed, " prob=", permille, "/1000 retries=",
               retries));
      return;
    }
    case AstNode::Kind::kCheckpoint: {
      if (!state_) {
        note("CHECKPOINT (no program state attached)");
        return;
      }
      ckpt_.emplace();
      StepStats step = state_->checkpoint(*ckpt_, "CHECKPOINT");
      note(step.to_string());
      steps_.push_back(std::move(step));
      return;
    }
    case AstNode::Kind::kRestore: {
      if (!state_) {
        note("RESTORE (no program state attached)");
        return;
      }
      if (!ckpt_) {
        throw ConformanceError("RESTORE without a preceding CHECKPOINT");
      }
      StepStats step = state_->restore(*ckpt_, "RESTORE");
      note(step.to_string());
      steps_.push_back(std::move(step));
      return;
    }
    case AstNode::Kind::kFailProc: {
      const Index1 p = binder.eval(node.fail_proc->proc);
      if (!state_) {
        note("FAIL_PROC (no program state attached)");
        return;
      }
      RecoveryReport report = recover_processor_loss(
          *state_, env, static_cast<ApId>(p), ckpt_ ? &*ckpt_ : nullptr);
      for (const StepStats& s : report.steps) {
        note(s.to_string());
        steps_.push_back(s);
      }
      note(report.to_string());
      recoveries_.push_back(std::move(report));
      return;
    }
    case AstNode::Kind::kDeclaration: {
      binder.apply(node);
      for (const AstDeclName& n : node.declaration->names) {
        create_storage_for(env, n.name);
      }
      return;
    }
    case AstNode::Kind::kAllocate: {
      binder.apply(node);
      for (const AstDeclName& item : node.allocate->items) {
        create_storage_for(env, item.name);
        note("ALLOCATE " + item.name);
      }
      return;
    }
    case AstNode::Kind::kDeallocate: {
      if (state_) {
        for (const std::string& name : node.deallocate->names) {
          DistArray& array = env.find(name);
          if (state_->exists(array.id())) state_->destroy(array);
        }
      }
      binder.apply(node);
      for (const std::string& name : node.deallocate->names) {
        note("DEALLOCATE " + name);
      }
      return;
    }
    case AstNode::Kind::kShadow: {
      binder.apply(node);
      // Shadow widths change the ghost footprint: re-materialize storage so
      // account_shadow charges the strips under the new declaration. Like a
      // specification-part DISTRIBUTE, this moves no data.
      if (state_) {
        DistArray& array = env.find(node.shadow->name);
        if (state_->exists(array.id())) {
          state_->destroy(array);
          state_->create(env, array);
        }
      }
      note("SHADOW " + node.shadow->name);
      return;
    }
    case AstNode::Kind::kDistribute: {
      if (!node.distribute->executable) {
        binder.apply(node);
        // Specification-part mapping change: storage (if any) is re-laid
        // out for free — no data exists yet in the program's semantics.
        if (state_) {
          for (const std::string& name : node.distribute->names) {
            DistArray& array = env.find(name);
            if (state_->exists(array.id())) {
              state_->destroy(array);
              state_->create(env, array);
            }
          }
        }
        return;
      }
      std::vector<RemapEvent> evs;
      binder.apply(node, &evs);
      if (state_) {
        std::vector<StepStats> steps = apply_remaps(*state_, env, evs);
        for (StepStats& s : steps) {
          note(s.to_string());
          steps_.push_back(std::move(s));
        }
      }
      for (RemapEvent& e : evs) events_.push_back(std::move(e));
      return;
    }
    case AstNode::Kind::kAlign: {
      if (!node.align->executable) {
        binder.apply(node);
        if (state_) {
          DistArray& array = env.find(node.align->alignee);
          if (state_->exists(array.id())) {
            state_->destroy(array);
            state_->create(env, array);
          }
        }
        return;
      }
      std::vector<RemapEvent> evs;
      binder.apply(node, &evs);
      if (state_) {
        std::vector<StepStats> steps = apply_remaps(*state_, env, evs);
        for (StepStats& s : steps) {
          note(s.to_string());
          steps_.push_back(std::move(s));
        }
      }
      for (RemapEvent& e : evs) events_.push_back(std::move(e));
      return;
    }
    default:
      binder.apply(node);
      return;
  }
}

ProcedureSig Interpreter::build_signature(
    const AstSubroutine& sub, Binder& binder,
    std::vector<const AstNode*>* body_rest) const {
  ProcedureSig sig;
  sig.name = sub.name;
  std::map<std::string, std::size_t> dummy_index;
  for (const std::string& d : sub.dummies) {
    DummySpec spec;
    spec.name = d;
    dummy_index[to_upper(d)] = sig.dummies.size();
    sig.dummies.push_back(std::move(spec));
  }
  auto is_dummy = [&](const std::string& name) {
    return dummy_index.count(to_upper(name)) != 0;
  };

  for (const AstNode& node : sub.body) {
    switch (node.kind) {
      case AstNode::Kind::kDeclaration: {
        bool any_dummy = false, any_local = false;
        for (const AstDeclName& n : node.declaration->names) {
          (is_dummy(n.name) ? any_dummy : any_local) = true;
        }
        if (any_dummy && any_local) {
          throw DirectiveError(
              "a declaration must not mix dummy arguments and locals",
              node.line, 1);
        }
        if (any_dummy) {
          for (const AstDeclName& n : node.declaration->names) {
            DummySpec& spec = sig.dummies[dummy_index[to_upper(n.name)]];
            const std::string& t = node.declaration->type;
            spec.type = iequals(t, "REAL")      ? ElemType::kReal
                        : iequals(t, "INTEGER") ? ElemType::kInteger
                        : iequals(t, "DOUBLE")  ? ElemType::kDoublePrecision
                                                : ElemType::kLogical;
          }
        } else {
          body_rest->push_back(&node);
        }
        break;
      }
      case AstNode::Kind::kDistribute: {
        const AstDistribute& dist = *node.distribute;
        bool any_dummy = false, any_local = false;
        for (const std::string& n : dist.names) {
          (is_dummy(n) ? any_dummy : any_local) = true;
        }
        if (dist.executable || !any_dummy) {
          body_rest->push_back(&node);
          break;
        }
        if (any_local) {
          throw DirectiveError(
              "a DISTRIBUTE must not mix dummy arguments and locals",
              node.line, 1);
        }
        for (const std::string& n : dist.names) {
          DummySpec& spec = sig.dummies[dummy_index[to_upper(n)]];
          if (dist.inherit && !dist.has_formats) {
            spec.mapping = DummyMapping::inherit();  // DISTRIBUTE X *
          } else if (dist.inherit) {
            spec.mapping = DummyMapping::inherit_match(
                binder.bind_formats(dist.formats),
                binder.bind_target(dist.target));  // DISTRIBUTE X * d [TO r]
          } else if (dist.has_formats) {
            spec.mapping = DummyMapping::explicit_dist(
                binder.bind_formats(dist.formats),
                binder.bind_target(dist.target));  // DISTRIBUTE X d [TO r]
          } else {
            throw DirectiveError("DISTRIBUTE needs formats or '*'", node.line,
                                 1);
          }
        }
        break;
      }
      case AstNode::Kind::kDynamic: {
        bool all_dummies = true;
        for (const std::string& n : node.dynamic->names) {
          if (!is_dummy(n)) all_dummies = false;
        }
        if (!all_dummies) {
          body_rest->push_back(&node);
          break;
        }
        for (const std::string& n : node.dynamic->names) {
          sig.dummies[dummy_index[to_upper(n)]].dynamic = true;
        }
        break;
      }
      case AstNode::Kind::kAlign: {
        if (!node.align->executable && is_dummy(node.align->alignee)) {
          throw DirectiveError(
              "specification-part alignment of a dummy argument is not "
              "supported by the interpreter; use a DISTRIBUTE form (§7 "
              "offers four) or REALIGN inside the body",
              node.line, 1);
        }
        body_rest->push_back(&node);
        break;
      }
      default:
        body_rest->push_back(&node);
        break;
    }
  }
  return sig;
}

void Interpreter::exec_call(const AstCall& call, Binder& binder) {
  DataEnv& caller = binder.env();
  const AstSubroutine& sub = find_subroutine(call.procedure);
  if (call.args.size() != sub.dummies.size()) {
    throw ConformanceError(cat("CALL ", call.procedure, " passes ",
                               call.args.size(), " arguments; ", sub.name,
                               " expects ", sub.dummies.size()));
  }
  std::vector<const AstNode*> body_rest;
  ProcedureSig sig = build_signature(sub, binder, &body_rest);

  std::vector<ActualArg> actuals;
  actuals.reserve(call.args.size());
  for (const AstCallArg& arg : call.args) {
    DistArray& actual = caller.find(arg.name);
    if (arg.has_subs) {
      actuals.push_back(ActualArg::of_section(
          actual.id(), binder.bind_section(arg.subs, actual.domain())));
    } else {
      actuals.push_back(ActualArg::whole(actual.id()));
    }
  }

  CallFrame frame = caller.call(sig, actuals, /*interface_visible=*/true);
  note(cat("CALL ", sub.name, " (", frame.call_events.size(),
           " call-site remaps)"));
  for (const RemapEvent& e : frame.call_events) events_.push_back(e);
  if (state_) {
    std::vector<StepStats> in = enter_call(*state_, caller, frame);
    for (StepStats& s : in) {
      note(s.to_string());
      steps_.push_back(std::move(s));
    }
  }

  // Execute the remaining body in the callee scope, with the caller's
  // scalar values visible (host association stand-in).
  Binder callee_binder(*space_, *frame.callee);
  for (const auto& [name, value] : binder.scalars()) {
    callee_binder.set_scalar(name, value);
  }
  for (const AstNode* node : body_rest) {
    exec_node(*node, callee_binder);
  }

  std::vector<RemapEvent> restore = caller.return_from(frame);
  for (const RemapEvent& e : restore) events_.push_back(e);
  if (state_) {
    std::vector<StepStats> out = exit_call(*state_, caller, frame);
    for (StepStats& s : out) {
      note(s.to_string());
      steps_.push_back(std::move(s));
    }
  }
  note(cat("RETURN from ", sub.name, " (", restore.size(),
           " restore remaps)"));
}

}  // namespace hpfnt::dir
