package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"strings"

	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/online"
	"repro/internal/serve"
)

// workloadFiles are one scheduled workload's persisted-state flags.
type workloadFiles struct {
	history   string // tuning-history file: loaded at startup, saved on shutdown
	predictor string // trained predictor file: loaded at startup
}

// workload is what run does with each scheduled workload, in order: define
// its flags, load its history and predictor, put them into the server
// config, build its flywheel lane, summarize its predictor and save its
// history on shutdown. wire builds it once for every learn.Workload.
type workload struct {
	flags     func()
	load      func(logger *slog.Logger) error
	configure func(cfg *serve.Config)
	lane      func(s *serve.Server, logger *slog.Logger) online.LaneConfig
	summarize func(s *serve.Server, logger *slog.Logger)
	save      func(logger *slog.Logger) error
}

// daemonWorkloads wires the workloads the daemon serves, each from its
// learn descriptor alone, with its flags in files.
func daemonWorkloads(files *[2]workloadFiles) [2]workload {
	return [2]workload{wire(&learn.SMSV, &files[0]), wire(&learn.SpGEMM, &files[1])}
}

// history is what the daemon does with a workload's tuning history besides
// handing it to the server.
type history interface {
	Len() int
	SaveFile(path string) error
}

// wire builds w's daemon steps over its flags in files and what load reads
// from them: the history (empty without a file) and the boot predictor
// (nil without one).
func wire[P any, L learn.Candidate, F learn.Model, H history, In any](w *learn.Workload[P, L, F, H, In], files *workloadFiles) workload {
	var (
		hist H
		boot F
		none F
	)
	return workload{
		flags: func() {
			flag.StringVar(&files.history, w.FlagPrefix+"history", "",
				w.Tag+w.Pair+"tuning-history file: loaded at startup, saved on shutdown")
			flag.StringVar(&files.predictor, w.FlagPrefix+"predictor", "",
				"trained "+strings.ReplaceAll(w.Predictor, " ", "-")+" file (from `layoutsched train"+w.CmdSuffix+"`) "+w.Serves)
		},
		// A corrupt or outdated file fails startup here, with the file
		// named in the error — never mid-request.
		load: func(logger *slog.Logger) error {
			var err error
			if hist, err = w.LoadHistory(files.history); err != nil {
				return err
			}
			if files.history != "" {
				logger.Info("loaded "+w.Pair+"tuning history", "entries", hist.Len(), "path", files.history)
			}
			if files.predictor == "" {
				return nil
			}
			if boot, err = w.LoadModelFile(files.predictor); err != nil {
				return err
			}
			logger.Info("loaded "+w.Predictor,
				"trees", boot.Trees(), "trained_on", boot.TrainedOn(), "path", files.predictor)
			return nil
		},
		// serve.Config keeps one field per workload for each of these
		// (DESIGN §16), so this is the one place the daemon names them.
		configure: func(cfg *serve.Config) {
			load := func(b []byte) (F, error) { return w.LoadModel(bytes.NewReader(b)) }
			switch h := any(hist).(type) {
			case *core.History:
				cfg.History, cfg.ModelLoader = h, loader[core.FormatPredictor](load)
				if boot != none {
					cfg.Predictor = any(boot).(core.FormatPredictor)
				}
			case *core.PairHistory:
				cfg.PairHistory, cfg.PairModelLoader = h, loader[core.PairPredictor](load)
				if boot != none {
					cfg.PairPredictor = any(boot).(core.PairPredictor)
				}
			}
		},
		lane: func(s *serve.Server, logger *slog.Logger) online.LaneConfig {
			return online.Lane(w, boot, learn.TrainConfig{}, installer[F](s, logger, w.Kind, w.Predictor))
		},
		// The counters cover whichever model served: the boot file, a
		// cluster push, or an online promotion.
		summarize: func(s *serve.Server, logger *slog.Logger) {
			hits, fallbacks := s.PredictorStats(w.Kind)
			logger.Info("predictor summary", "workload", w.Kind, "hits", hits, "fallbacks", fallbacks)
		},
		save: func(logger *slog.Logger) error {
			if files.history == "" {
				return nil
			}
			if err := hist.SaveFile(files.history); err != nil {
				return fmt.Errorf("saving %shistory: %w", w.Pair, err)
			}
			logger.Info("saved "+w.Pair+"tuning history", "entries", hist.Len(), "path", files.history)
			return nil
		},
	}
}

// loader adapts the workload's model decoder to a serve model loader.
// Pushed models decode exactly like predictor files, so a model that trains
// on one node distributes to the rest of the ring unchanged. P is the
// predictor interface F serves as; Go cannot state that relation between
// two type parameters, so it is asserted.
func loader[P any, F learn.Model](load func([]byte) (F, error)) func([]byte) (P, error) {
	return func(b []byte) (p P, err error) {
		f, err := load(b)
		if err != nil {
			return p, err
		}
		return any(f).(P), nil
	}
}

// installer returns a flywheel lane's install hook. A nil forest — a
// rollback to a no-model boot lane — unloads the serving predictor locally
// (nothing to broadcast: peers keep whatever they serve until the next
// promotion); any other is serialised and installed through the same
// loader and hot swap cluster pushes take, then broadcast to the ring. The
// install context carries the controller's online.retrain trace, so a
// promotion's ring-wide broadcast is recorded as one trace.
func installer[F learn.Model](s *serve.Server, logger *slog.Logger, kind, noun string) func(context.Context, F) error {
	return func(ctx context.Context, f F) error {
		var model []byte
		var unloaded F
		if f != unloaded {
			var buf bytes.Buffer
			if err := f.Save(&buf); err != nil {
				return err
			}
			model = buf.Bytes()
		}
		n, err := s.InstallModel(ctx, kind, model)
		if n > 0 {
			logger.Info("broadcast promoted "+noun, "peers", n)
		}
		return err
	}
}
